// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The eight foundational lint rules, ported from the original regex-per-line
// checker onto the token-stream engine. Behavior is contract-compatible
// (same rule names, same messages, same applicability) but the token view
// removes the old false-positive classes: literals and comments are opaque,
// multi-line constructs need no lookahead windows, and scopes come from
// real brace matching instead of indentation.

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

constexpr std::string_view kLicenseBanner =
    "Copyright (c) the webrbd authors";

/// The keyword of a "#word" directive token ("#  ifndef" -> "ifndef").
std::string_view DirectiveWord(const Token& token) {
  std::string_view text = token.text;
  size_t end = text.size();
  size_t begin = end;
  while (begin > 0 && (IsAsciiAlnum(text[begin - 1]) || text[begin - 1] == '_')) {
    --begin;
  }
  return text.substr(begin, end - begin);
}

// ------------------------------------------------------------ license-header

class LicenseHeaderRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"license-header",
            "every source file starts with the project license banner"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    if (!fa.lines.empty() &&
        fa.lines[0].find(kLicenseBanner) != std::string::npos) {
      return;
    }
    reporter->Report(info().name, 1, 0,
                     "file must start with '// " + std::string(kLicenseBanner) +
                         ". Licensed under the Apache License 2.0.'");
  }
};

// ------------------------------------------------------------- include-guard

class IncludeGuardRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"include-guard", "headers use WEBRBD_<PATH>_H_ include guards"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    if (!EndsWith(fa.path, ".h")) return;
    const std::string expected = ExpectedIncludeGuard(fa.path);
    for (size_t ci = 0; ci < fa.code_size(); ++ci) {
      const Token& token = fa.Code(ci);
      if (token.kind != TokenKind::kDirective) continue;
      if (DirectiveWord(token) != "ifndef") continue;
      // Only the first #ifndef is the guard.
      if (fa.CodeText(ci + 1) != expected) {
        reporter->Report(info().name, token.line, 0,
                         "include guard must be " + expected);
      }
      return;
    }
    reporter->Report(info().name, 1, 0,
                     "header has no include guard (expected " + expected +
                         ")");
  }
};

// ----------------------------------------------------------- banned-function

class BannedFunctionRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"banned-function",
            "atoi / strcpy / sprintf are forbidden (unbounded or "
            "locale-bound)"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    static const std::set<std::string_view> kBanned = {"atoi", "strcpy",
                                                       "sprintf"};
    for (size_t ci = 0; ci + 1 < fa.code_size(); ++ci) {
      const Token& token = fa.Code(ci);
      if (!token.IsIdent() || kBanned.count(token.text) == 0) continue;
      if (fa.CodeText(ci + 1) != "(") continue;
      reporter->ReportAt(info().name, token,
                         "'" + std::string(token.text) +
                             "' is banned: use StringToInt/snprintf/"
                             "std::string instead");
    }
  }
};

// ------------------------------------------------------------ raw-new-delete

class RawNewDeleteRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"raw-new-delete",
            "library code (src/) must not use raw new/delete expressions"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    if (!IsLibraryPath(fa.path)) return;
    for (size_t ci = 0; ci < fa.code_size(); ++ci) {
      const Token& token = fa.Code(ci);
      if (!token.IsIdent() || token.in_directive) continue;
      const std::string_view prev = ci > 0 ? fa.CodeText(ci - 1) : "";
      if (prev == "operator") continue;  // operator new/delete overloads
      const std::string_view next = fa.CodeText(ci + 1);
      bool hit = false;
      if (token.Is("new")) {
        // A new-expression: `new T`, `new (place) T`, `new T[n]`.
        hit = (ci + 1 < fa.code_size() && fa.Code(ci + 1).IsIdent()) ||
              next == "(";
      } else if (token.Is("delete") && prev != "=") {
        // `= delete` is a deleted function, not a delete-expression.
        hit = (ci + 1 < fa.code_size() && fa.Code(ci + 1).IsIdent()) ||
              next == "*" || next == "(" ||
              (next == "[" && fa.CodeText(ci + 2) == "]");
      }
      if (hit) {
        reporter->ReportAt(info().name, token,
                           "raw new/delete in library code: use "
                           "std::make_unique / std::make_shared or a "
                           "container");
      }
    }
  }
};

// ---------------------------------------------------------- throw-in-library

class ThrowInLibraryRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"throw-in-library",
            "library code (src/) reports errors via Status, never throw"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    if (!IsLibraryPath(fa.path)) return;
    for (size_t ci = 0; ci < fa.code_size(); ++ci) {
      const Token& token = fa.Code(ci);
      if (!token.IsIdent() || !token.Is("throw")) continue;
      reporter->ReportAt(info().name, token,
                         "library code reports errors via Status/Result, "
                         "never exceptions");
    }
  }
};

// ---------------------------------------------------------- unchecked-status

class UncheckedStatusRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"unchecked-status",
            "a Status/Result-returning call must not be a bare statement"};
  }

  void Collect(const FileAnalysis& fa, Corpus* corpus) override {
    // A declarator returning Status or Result<...>: the type name, then a
    // (possibly qualified) function name, then '('. Member access
    // (`x.Status`) and static-member calls (`Status::Ok(...)`) never match
    // because the token after the type must itself be an identifier.
    for (size_t ci = 0; ci + 1 < fa.code_size(); ++ci) {
      const Token& token = fa.Code(ci);
      if (!token.IsIdent() || token.in_directive) continue;
      const std::string_view prev = ci > 0 ? fa.CodeText(ci - 1) : "";
      if (prev == "." || prev == "->") continue;
      size_t after;
      if (token.Is("Status")) {
        after = ci + 1;
      } else if (token.Is("Result") && fa.CodeText(ci + 1) == "<") {
        after = SkipTemplateArgs(fa, ci + 1);
        if (after == kNpos) continue;
      } else {
        continue;
      }
      if (after >= fa.code_size() || !fa.Code(after).IsIdent()) continue;
      std::string last;
      size_t p = after;
      while (p < fa.code_size() && fa.Code(p).IsIdent()) {
        last = std::string(fa.CodeText(p));
        if (fa.CodeText(p + 1) == "::" && p + 2 < fa.code_size() &&
            fa.Code(p + 2).IsIdent()) {
          p += 2;
          continue;
        }
        ++p;
        break;
      }
      if (fa.CodeText(p) == "(") corpus->status_functions.insert(last);
    }
  }

  void Check(const FileAnalysis& fa, const Corpus& corpus,
             Reporter* reporter) const override {
    for (size_t ci = 0; ci + 1 < fa.code_size(); ++ci) {
      const Token& token = fa.Code(ci);
      if (!token.IsIdent() || token.in_directive) continue;
      if (fa.CodeText(ci + 1) != "(") continue;
      if (corpus.status_functions.count(std::string(token.text)) == 0) {
        continue;
      }
      // Walk back over the receiver chain (`obj.`, `ptr->`, `Class::`) to
      // the start of the expression.
      size_t begin = ci;
      while (begin >= 2) {
        const std::string_view link = fa.CodeText(begin - 1);
        if ((link == "." || link == "->" || link == "::") &&
            fa.Code(begin - 2).IsIdent()) {
          begin -= 2;
        } else {
          break;
        }
      }
      if (!AtStatementStart(fa, begin)) continue;
      const size_t after_call = MatchingClose(fa, ci + 1);
      if (after_call == kNpos || fa.CodeText(after_call) != ";") continue;
      reporter->ReportAt(
          info().name, token,
          "result of Status/Result-returning call '" +
              std::string(token.text) +
              "' is discarded; check it, propagate it with "
              "WEBRBD_RETURN_IF_ERROR, or cast to void");
    }
  }

 private:
  static bool AtStatementStart(const FileAnalysis& fa, size_t begin) {
    if (begin == 0) return true;
    const Token& prev = fa.Code(begin - 1);
    if (prev.kind == TokenKind::kDirective || prev.in_directive) return true;
    const std::string_view t = prev.text;
    if (t == ";" || t == "{" || t == "}" || t == ":" || t == "else" ||
        t == "do") {
      return true;
    }
    if (t == ")") {
      // `if (...) Call();` is a statement; `(void)Call();` is consumed.
      const bool void_cast = begin >= 3 && fa.CodeText(begin - 2) == "void" &&
                             fa.CodeText(begin - 3) == "(";
      return !void_cast;
    }
    return false;
  }
};

// ----------------------------------------------------------- unguarded-value

class UnguardedValueRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"unguarded-value",
            "x.value() requires a dominating x.ok()/x.has_value() check"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    const std::vector<FunctionDef> defs = FindFunctions(fa);
    for (size_t ci = 0; ci < fa.code_size(); ++ci) {
      const Token& token = fa.Code(ci);
      if (!token.IsIdent() || token.in_directive) continue;
      std::string ident;
      if (token.Is("move") && fa.CodeText(ci + 1) == "(" &&
          ci + 7 < fa.code_size() && fa.Code(ci + 2).IsIdent() &&
          fa.CodeText(ci + 3) == ")" && fa.CodeText(ci + 4) == "." &&
          fa.CodeText(ci + 5) == "value" && fa.CodeText(ci + 6) == "(" &&
          fa.CodeText(ci + 7) == ")") {
        ident = std::string(fa.CodeText(ci + 2));
      } else if (ci + 4 < fa.code_size() && fa.CodeText(ci + 1) == "." &&
                 fa.CodeText(ci + 2) == "value" &&
                 fa.CodeText(ci + 3) == "(" && fa.CodeText(ci + 4) == ")") {
        ident = std::string(token.text);
      } else {
        continue;
      }
      if (IsGuarded(fa, defs, ci, ident)) continue;
      reporter->ReportAt(info().name, token,
                         "'" + ident + ".value()' has no dominating '" +
                             ident +
                             ".ok()' (or has_value) check in this scope");
    }
  }

 private:
  /// Scans the enclosing function's tokens before `expr_ci` for a guard on
  /// `ident`: x.ok(, x->ok(, x.has_value(, or a condition (x) / (!x) /
  /// (*x). Without an enclosing definition (top-level fragment), the scan
  /// starts after the previous function body.
  static bool IsGuarded(const FileAnalysis& fa,
                        const std::vector<FunctionDef>& defs, size_t expr_ci,
                        const std::string& ident) {
    size_t scan_begin = 0;
    const FunctionDef* def = EnclosingFunction(defs, expr_ci);
    if (def != nullptr) {
      scan_begin = def->body_begin;
    } else {
      for (const FunctionDef& other : defs) {
        if (other.is_definition && other.body_end <= expr_ci) {
          scan_begin = std::max(scan_begin, other.body_end);
        }
      }
    }
    for (size_t ci = scan_begin; ci + 2 < expr_ci; ++ci) {
      const std::string_view a = fa.CodeText(ci);
      const std::string_view b = fa.CodeText(ci + 1);
      const std::string_view c = fa.CodeText(ci + 2);
      if (a == ident && (b == "." || b == "->") &&
          (c == "ok" || c == "has_value") && fa.CodeText(ci + 3) == "(") {
        return true;
      }
      if (a == "(" && b == ident && c == ")") return true;
      if (a == "(" && (b == "!" || b == "*") && c == ident &&
          fa.CodeText(ci + 3) == ")") {
        return true;
      }
    }
    return false;
  }
};

// --------------------------------------------------------- tagnode-recursion

class TagNodeRecursionRule : public Rule {
 public:
  LintRuleInfo info() const override {
    return {"tagnode-recursion",
            "functions over TagNode iterate with an explicit stack, never "
            "recurse (adversarial nesting overflows the call stack)"};
  }

  void Check(const FileAnalysis& fa, const Corpus&,
             Reporter* reporter) const override {
    if (!IsLibraryPath(fa.path)) return;
    for (const FunctionDef& def : FindFunctions(fa)) {
      if (!def.is_definition) continue;
      bool takes_tagnode = false;
      for (size_t ci = def.params_begin; ci < def.params_end; ++ci) {
        if (fa.CodeText(ci) == "TagNode") {
          takes_tagnode = true;
          break;
        }
      }
      if (!takes_tagnode) continue;
      for (size_t ci = def.body_begin + 1; ci + 1 < def.body_end; ++ci) {
        const Token& token = fa.Code(ci);
        if (!token.IsIdent() || token.text != def.name) continue;
        if (fa.CodeText(ci + 1) != "(") continue;
        reporter->ReportAt(
            info().name, token,
            "'" + def.name +
                "' takes a TagNode and calls itself; adversarial nesting "
                "depth overflows the call stack — iterate with an explicit "
                "stack (see PreOrderVisit)");
        break;
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> MakeCoreRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<LicenseHeaderRule>());
  rules.push_back(std::make_unique<IncludeGuardRule>());
  rules.push_back(std::make_unique<BannedFunctionRule>());
  rules.push_back(std::make_unique<RawNewDeleteRule>());
  rules.push_back(std::make_unique<ThrowInLibraryRule>());
  rules.push_back(std::make_unique<UncheckedStatusRule>());
  rules.push_back(std::make_unique<UnguardedValueRule>());
  rules.push_back(std::make_unique<TagNodeRecursionRule>());
  return rules;
}

std::vector<std::unique_ptr<Rule>> MakeAllRules() {
  std::vector<std::unique_ptr<Rule>> rules = MakeCoreRules();
  rules.push_back(MakeArenaEscapeRule());
  rules.push_back(MakeLockDisciplineRule());
  rules.push_back(MakeMetricCatalogRule());
  return rules;
}

}  // namespace lint
}  // namespace webrbd
