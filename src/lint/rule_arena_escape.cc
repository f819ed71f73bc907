// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// arena-escape: TagNode pointers and string_views handed out by the
// arena-backed tag tree (src/html/document_arena.h) only live until the
// ExtractionContext's arena is reset after the ExtractDocument call, and
// HtmlToken's name/text/attr views (src/html/token.h) borrow the source
// document buffer and the lexer's arena the same way. This rule flags the
// storage patterns that outlive that window:
//
//   - assigning a borrowed value to a member (`last_node_ = node;`) or a
//     global (`g_last = node->text;`), and
//   - inserting one into a member/global container
//     (`nodes_.push_back(node)`).
//
// "Borrowed" is tracked per function: TagNode*/& and HtmlToken*/&
// parameters and locals, plus locals of view type (string_view / auto /
// std::span<const HtmlAttribute>) initialized from a borrowed value. An
// assignment only counts when the borrowed variable is
// the ROOT of the stored expression (`node`, `&node`, `node->text`,
// `node->text()`), so scalar derivations (`CountNodes(node)`,
// `node->children().size()`) pass.
//
// src/html/ itself is exempt: the arena-owning layer necessarily stores
// nodes and views with arena lifetime.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lint/analysis.h"
#include "lint/rules.h"
#include "util/string_util.h"

namespace webrbd {
namespace lint {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

/// Methods whose result is a scalar copy, not a borrow, even when called
/// on a borrowed chain.
const std::set<std::string, std::less<>>& ScalarMethods() {
  static const std::set<std::string, std::less<>> kMethods = {
      "size",  "length",  "empty", "count",        "depth",
      "id",    "node_id", "index", "kind",         "level",
      "begin", "end",     "IsTag", "self_closing", "synthetic"};
  return kMethods;
}

/// True for identifiers that outlive the current call by naming
/// convention: members (`nodes_`) and globals (`g_nodes`).
bool IsLongLivedName(std::string_view name) {
  if (name.size() >= 2 && name.back() == '_' &&
      name[name.size() - 2] != '_') {
    return true;
  }
  return name.size() > 2 && name.substr(0, 2) == "g_";
}

bool IsInsertMethod(std::string_view name) {
  return name == "push_back" || name == "emplace_back" || name == "insert" ||
         name == "emplace" || name == "push" || name == "assign" ||
         name == "try_emplace";
}

class ArenaEscapeRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"arena-escape",
            "a TagNode*, HtmlToken, or string_view borrowing arena- or "
            "document-backed storage must not be stored in a member, "
            "global, or container that outlives the extraction call"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    if (!StartsWith(fa.path, "src/")) return;
    if (StartsWith(fa.path, "src/html/")) return;  // the arena-owning layer
    for (const FunctionDef& def : FindFunctions(fa)) {
      if (!def.is_definition) continue;
      CheckFunction(fa, def, reporter);
    }
  }

 private:
  void CheckFunction(const FileAnalysis& fa, const FunctionDef& def,
                     Reporter* reporter) const {
    // Borrowed variables, found in token order: TagNode*/& declarations in
    // the parameter list and body, plus view-typed locals initialized from
    // an already-borrowed value.
    std::set<std::string> borrowed;
    for (size_t ci = def.params_begin; ci + 2 < def.body_end; ++ci) {
      const std::string_view type = fa.CodeText(ci);
      if (type != "TagNode" && type != "HtmlToken") continue;
      const std::string_view mod = fa.CodeText(ci + 1);
      if (mod != "*" && mod != "&") continue;
      if (!fa.Code(ci + 2).IsIdent()) continue;
      borrowed.insert(std::string(fa.CodeText(ci + 2)));
    }
    if (borrowed.empty()) return;

    for (size_t ci = def.body_begin + 1; ci < def.body_end; ++ci) {
      const Token& token = fa.Code(ci);
      if (!token.IsIdent() || token.in_directive) continue;
      const std::string_view next = fa.CodeText(ci + 1);

      // Pattern 1: `<name> = <borrowed-rooted expr> ;`
      if (next == "=" && fa.CodeText(ci + 2) != "=") {
        const std::string root = BorrowedRoot(fa, ci + 2, borrowed);
        if (root.empty()) continue;
        if (IsLongLivedName(token.text)) {
          reporter->ReportAt(
              info().name, token,
              "'" + root +
                  "' borrows arena- or document-backed storage; storing it "
                  "in '" + std::string(token.text) +
                  "' outlives the owning document — copy to std::string "
                  "(or keep a TagNodeId) instead");
        } else if (IsViewDeclaration(fa, ci)) {
          borrowed.insert(std::string(token.text));  // borrow propagates
        }
        continue;
      }

      // Pattern 2: `<member>.push_back(<borrowed-rooted expr>)` et al.
      if (IsLongLivedName(token.text) && (next == "." || next == "->") &&
          IsInsertMethod(fa.CodeText(ci + 2)) &&
          fa.CodeText(ci + 3) == "(") {
        const size_t close = MatchingClose(fa, ci + 3);
        if (close == kNpos) continue;
        // Check the root of each top-level argument; a borrow buried in
        // another call's arguments (`ids_.push_back(IdOf(node))`) is that
        // call's business, not an escape.
        std::vector<size_t> arg_starts = {ci + 4};
        int depth = 0;
        for (size_t ai = ci + 4; ai + 1 < close; ++ai) {
          const std::string_view t = fa.CodeText(ai);
          if (t == "(" || t == "[" || t == "{") ++depth;
          if (t == ")" || t == "]" || t == "}") --depth;
          if (t == "," && depth == 0) arg_starts.push_back(ai + 1);
        }
        for (size_t arg : arg_starts) {
          if (arg + 1 > close) break;
          const std::string root = BorrowedRoot(fa, arg, borrowed);
          if (root.empty()) continue;
          reporter->ReportAt(
              info().name, token,
              "'" + root +
                  "' borrows arena- or document-backed storage; inserting "
                  "it into '" + std::string(token.text) +
                  "' outlives the owning document — copy to std::string "
                  "(or keep a TagNodeId) instead");
          break;
        }
        ci = close;
      }
    }
  }

  /// If the expression starting at `ci` is rooted in a borrowed variable —
  /// optional `&`/`*`, the variable, then any chain of member accesses and
  /// calls — returns that variable. The chain must not end in a known
  /// scalar accessor, and a root buried inside another call's arguments
  /// (`CountNodes(node)`) does not count.
  std::string BorrowedRoot(const FileAnalysis& fa, size_t ci,
                           const std::set<std::string>& borrowed) const {
    std::string_view first = fa.CodeText(ci);
    if (first == "&" || first == "*") first = fa.CodeText(++ci);
    // std::move does not launder a borrow: look through it.
    if (first == "std" && fa.CodeText(ci + 1) == "::") ci += 2;
    if (fa.CodeText(ci) == "move" && fa.CodeText(ci + 1) == "(") {
      return BorrowedRoot(fa, ci + 2, borrowed);
    }
    if (ci >= fa.code_size() || !fa.Code(ci).IsIdent()) return "";
    const std::string root(fa.CodeText(ci));
    if (borrowed.count(root) == 0) return "";
    // Walk the access chain; remember the last member name crossed.
    std::string last_member;
    size_t p = ci + 1;
    while (p < fa.code_size()) {
      const std::string_view t = fa.CodeText(p);
      if (t == "." || t == "->") {
        if (p + 1 >= fa.code_size() || !fa.Code(p + 1).IsIdent()) break;
        last_member = std::string(fa.CodeText(p + 1));
        p += 2;
        continue;
      }
      if (t == "(") {
        const size_t after = MatchingClose(fa, p);
        if (after == kNpos) break;
        p = after;
        continue;
      }
      break;
    }
    if (!last_member.empty() && ScalarMethods().count(last_member) > 0) {
      return "";  // the chain collapses to a scalar copy
    }
    return root;
  }

  /// True when the identifier at code-index `name_ci` is being DECLARED
  /// with a view-ish type: the preceding tokens are `auto`, `string_view`,
  /// `TagNode`/`HtmlToken` + `*`/`&`, `span<const HtmlAttribute>` (a
  /// token's arena-backed attributes), or a `const` variant thereof.
  bool IsViewDeclaration(const FileAnalysis& fa, size_t name_ci) const {
    if (name_ci == 0) return false;
    size_t p = name_ci - 1;
    std::string_view t = fa.CodeText(p);
    if ((t == "*" || t == "&") && p > 0) t = fa.CodeText(--p);
    if (t == ">" && p >= 3 && fa.CodeText(p - 1) == "HtmlAttribute") {
      p -= 2;
      if (fa.CodeText(p) == "const" && p > 0) --p;
      return fa.CodeText(p) == "<" && p > 0 && fa.CodeText(p - 1) == "span";
    }
    return t == "auto" || t == "string_view" || t == "TagNode" ||
           t == "HtmlToken";
  }
};

}  // namespace

std::unique_ptr<Rule> MakeArenaEscapeRule() {
  return std::make_unique<ArenaEscapeRule>();
}

}  // namespace lint
}  // namespace webrbd
