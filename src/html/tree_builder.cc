// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "html/tree_builder.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "html/lexer.h"
#include "obs/stages.h"
#include "robust/limits.h"

namespace webrbd {

namespace {

// --- Step 2: balance the token stream -------------------------------------

// The balanced stream plus the interned symbol of each token (text tokens
// carry kInvalidTagSymbol). Interning happens here, in the same pass that
// filters the raw stream, so Step 3 and every downstream heuristic compare
// integers instead of name strings.
struct BalancedStream {
  std::vector<HtmlToken> tokens;
  std::vector<TagSymbol> symbols;
};

Status InternOverflow() {
  obs::Robust().trip_arena_bytes->Increment();
  return Status::ResourceExhausted(
      "tag-name intern table overflow (more than 65534 distinct tag names)");
}

// Interner pool bytes count against the ARENA byte budget: the pool is
// monotonic and survives DocumentArena::Reset() by design (warm symbols
// across a batch chunk), which also means a corpus of documents with
// all-distinct tag names grows it for the life of the worker. Charging it
// to max_arena_bytes turns that unbounded growth into an ordinary
// per-document kResourceExhausted degradation.
Status ArenaBudgetExceeded(const robust::DocumentLimits& limits) {
  obs::Robust().trip_arena_bytes->Increment();
  return Status::ResourceExhausted(
      "tag tree + tag-name intern table exceed max_arena_bytes " +
      std::to_string(limits.max_arena_bytes));
}

// Implements the paper's Step 2 on the token stream: drops useless tokens
// and inserts missing end tags so that the result is balanced and properly
// nested. An unclosed tag's synthesized end-tag is placed just before the
// next tag after its start-tag, which is exactly the paper's region rule.
//
// One left-to-right pass compacts the lexer's own vector in place: it drops
// comments / declarations / processing instructions (the paper's "useless"
// <!... tags) and end tags with no open start, interns every tag name, and
// walks the open-element stack. Matching an end tag uses the paper's table
// of linked lists: innermost[symbol] is the stack position of the innermost
// open frame of that symbol, and each frame links to the next-outer open
// frame of its symbol. Every synthesized end tag (an unclosed tag's, or a
// self-closing tag's) is recorded as an insertion into the compacted
// stream, and one backward merge moves each surviving token at most once.
//
// Linear: a useless end tag leaves the stream as soon as it is read, so an
// unclosed tag's end lands before the first tag after it in the compacted
// stream, found by scanning only the text between the two — and those
// stretches are disjoint across tags.
Result<BalancedStream> BalanceTokens(std::vector<HtmlToken> tokens,
                                     DocumentArena& arena,
                                     const robust::DocumentLimits& limits) {
  TagNameInterner& interner = arena.interner();
  constexpr size_t kNone = static_cast<size_t>(-1);
  struct OpenTag {
    size_t token_index;  // the start tag's index in the compacted stream
    size_t previous;     // next-outer open frame of this symbol, or kNone
    TagSymbol symbol;
  };
  std::vector<OpenTag> stack;
  std::vector<size_t> innermost;  // by symbol; kNone when none is open

  // A synthesized end tag, to be placed before compacted token `at`.
  struct PendingEnd {
    size_t at;
    size_t offset;
    std::string_view name;
    TagSymbol symbol;
  };
  std::vector<PendingEnd> insertions;

  // Sized for the raw stream up front (room for the merge reserved too),
  // so the walk stores symbols without a capacity check per token.
  std::vector<TagSymbol> symbols;
  symbols.reserve(tokens.capacity());
  symbols.resize(tokens.size());
  size_t write = 0;     // compacted stream is tokens[0, write)
  size_t last_end = 0;  // end of the last token that is not a comment
  // Appends tokens[read] to the compacted stream; until the first drop the
  // two coincide and nothing is copied.
  auto keep = [&](size_t read, TagSymbol symbol) {
    if (write != read) tokens[write] = tokens[read];
    symbols[write] = symbol;
    return write++;
  };

  // Closes `open` without a matching end tag: its end goes just before
  // the first tag after it among tokens[0, limit), or at the end of the
  // document when there is none.
  auto close_unmatched = [&](const OpenTag& open, size_t limit) {
    size_t at = open.token_index + 1;
    while (at < limit && tokens[at].kind == HtmlToken::Kind::kText) ++at;
    insertions.push_back(
        PendingEnd{at, at < limit ? tokens[at].begin : last_end,
                   tokens[open.token_index].name, open.symbol});
  };

  for (size_t read = 0; read < tokens.size(); ++read) {
    const HtmlToken::Kind kind = tokens[read].kind;
    if (kind == HtmlToken::Kind::kComment ||
        kind == HtmlToken::Kind::kProcessing) {
      continue;
    }
    last_end = tokens[read].end;
    if (kind == HtmlToken::Kind::kText) {
      keep(read, kInvalidTagSymbol);
      continue;
    }

    const size_t names_before = interner.size();
    const TagSymbol symbol = interner.Intern(tokens[read].name);
    if (symbol == kInvalidTagSymbol) return InternOverflow();
    if (interner.size() != names_before &&
        robust::LimitExceeded(arena.budget_bytes(), limits.max_arena_bytes)) {
      return ArenaBudgetExceeded(limits);
    }

    if (kind == HtmlToken::Kind::kStartTag) {
      const size_t at = keep(read, symbol);
      if (tokens[at].self_closing) {
        // <x/> is <x></x>: its end goes right after it, and a start that
        // closes itself never changes the stack.
        tokens[at].self_closing = false;
        insertions.push_back(
            PendingEnd{at + 1, tokens[at].end, tokens[at].name, symbol});
        continue;
      }
      if (symbol >= innermost.size()) innermost.resize(symbol + 1, kNone);
      stack.push_back(OpenTag{at, innermost[symbol], symbol});
      innermost[symbol] = stack.size() - 1;
      continue;
    }

    // End tag: the innermost open tag of the same symbol, if any.
    if (symbol >= innermost.size() || innermost[symbol] == kNone) {
      continue;  // end tag with no corresponding start: useless
    }
    keep(read, symbol);
    // Pop everything above the match (synthesizing their end tags,
    // innermost first) plus the match itself, unlinking each popped frame.
    const size_t match = innermost[symbol];
    for (size_t s = stack.size(); s-- > match;) {
      innermost[stack[s].symbol] = stack[s].previous;
      if (s > match) close_unmatched(stack[s], write);
    }
    stack.resize(match);
  }
  // Tags still open at end of input.
  for (size_t s = stack.size(); s-- > 0;) {
    close_unmatched(stack[s], write);
  }

  if (insertions.empty()) {
    tokens.resize(write);
    symbols.resize(write);
    return BalancedStream{std::move(tokens), std::move(symbols)};
  }

  // Merge back to front, inside the same vector: each synthesized end is
  // written before the token it was scheduled in front of, and every
  // surviving token moves at most once. Writing from the back keeps every
  // unread token ahead of the write cursor. Same-index insertions keep
  // their close order (stable sort), walked from the back. Every `at` is
  // at least 1 (an end follows its start), so the walk stops before i
  // reaches 0.
  std::stable_sort(
      insertions.begin(), insertions.end(),
      [](const PendingEnd& a, const PendingEnd& b) { return a.at < b.at; });
  const size_t total = write + insertions.size();
  if (total > tokens.capacity()) tokens.reserve(total);  // exact, one move
  tokens.resize(total);
  symbols.resize(total);
  size_t out = total;
  size_t pending = insertions.size();
  for (size_t i = write; pending > 0; --i) {
    while (pending > 0 && insertions[pending - 1].at == i) {
      const PendingEnd& end = insertions[--pending];
      HtmlToken& token = tokens[--out];
      token = HtmlToken{};
      token.kind = HtmlToken::Kind::kEndTag;
      token.name = end.name;
      token.synthetic = true;
      token.begin = end.offset;
      token.end = end.offset;
      symbols[out] = end.symbol;
    }
    if (pending == 0) break;  // everything before i is already in place
    --out;
    tokens[out] = tokens[i - 1];
    symbols[out] = symbols[i - 1];
  }
  return BalancedStream{std::move(tokens), std::move(symbols)};
}

// --- Step 3: build the tree from the balanced stream ----------------------

// Appends one text token's bytes to a node text field. The first run is a
// zero-copy view into the token's own storage (owned by the TagTree); a
// second run — possible when a comment was discarded between two text
// tokens — coalesces into the arena.
void AppendText(std::string_view* field, std::string_view piece,
                DocumentArena& arena) {
  *field = field->empty() ? piece : arena.Concat(*field, piece);
}

Result<TagNode*> BuildFromBalanced(DocumentArena& arena,
                                   const BalancedStream& stream,
                                   size_t document_size,
                                   const robust::DocumentLimits& limits) {
  const std::vector<HtmlToken>& tokens = stream.tokens;
  const TagSymbol root_symbol = arena.interner().Intern("#document");
  if (root_symbol == kInvalidTagSymbol) return InternOverflow();

  TagNode* root = arena.New<TagNode>();
  root->name = arena.interner().NameOf(root_symbol);
  root->symbol = root_symbol;
  root->region_begin = 0;
  root->region_end = document_size;
  root->token_begin = 0;
  root->token_end = tokens.empty() ? 0 : tokens.size() - 1;

  // Open-element stack. `child_mark` is each frame's watermark into the
  // shared `pending_children` scratch: closed nodes await adoption there,
  // and when their parent closes, its children sit contiguously at
  // [child_mark, end) — copied to the arena as one span.
  struct OpenFrame {
    TagNode* node;
    size_t child_mark;
  };
  std::vector<OpenFrame> stack = {{root, 0}};
  std::vector<TagNode*> pending_children;
  TagNode* last_closed = nullptr;

  for (size_t i = 0; i < tokens.size(); ++i) {
    const HtmlToken& token = tokens[i];
    switch (token.kind) {
      case HtmlToken::Kind::kStartTag: {
        // stack holds the super-root plus every open element, so its size
        // equals the nesting depth the new element would land at.
        if (robust::LimitExceeded(stack.size(), limits.max_tree_depth)) {
          obs::Robust().trip_depth->Increment();
          return Status::ResourceExhausted(
              "tag nesting exceeds max_tree_depth " +
              std::to_string(limits.max_tree_depth));
        }
        if (robust::LimitExceeded(arena.budget_bytes(),
                                  limits.max_arena_bytes)) {
          return ArenaBudgetExceeded(limits);
        }
        TagNode* node = arena.New<TagNode>();
        node->symbol = stream.symbols[i];
        node->name = arena.interner().NameOf(node->symbol);
        node->attrs = token.attrs;
        node->region_begin = token.begin;
        node->token_begin = i;
        node->parent = stack.back().node;
        stack.push_back(OpenFrame{node, pending_children.size()});
        last_closed = nullptr;
        break;
      }
      case HtmlToken::Kind::kEndTag: {
        if (stack.size() < 2 ||
            stack.back().node->symbol != stream.symbols[i]) {
          return Status::Internal(
              "tree builder: balanced stream violated nesting at token " +
              std::to_string(i) + " </" + std::string(token.name) + ">");
        }
        OpenFrame frame = stack.back();
        stack.pop_back();
        TagNode* node = frame.node;
        node->region_end = token.end;
        node->token_end = i;
        node->end_tag_synthesized = token.synthetic;
        node->children =
            arena.CopyArray(pending_children.data() + frame.child_mark,
                            pending_children.size() - frame.child_mark);
        pending_children.resize(frame.child_mark);
        pending_children.push_back(node);
        last_closed = node;
        break;
      }
      case HtmlToken::Kind::kText: {
        // "I": text between a start tag and the next tag goes to the node
        // just opened; "O": text after an end tag goes to the node just
        // closed.
        if (last_closed != nullptr) {
          AppendText(&last_closed->tail_text, token.text, arena);
        } else if (pending_children.size() == stack.back().child_mark) {
          AppendText(&stack.back().node->inner_text, token.text, arena);
        } else {
          // Text between siblings with no intervening close (defensive;
          // unreachable with a balanced stream).
          AppendText(&pending_children.back()->tail_text, token.text, arena);
        }
        break;
      }
      case HtmlToken::Kind::kComment:
      case HtmlToken::Kind::kProcessing:
        return Status::Internal("tree builder: comment survived balancing");
    }
  }
  if (stack.size() != 1) {
    return Status::Internal("tree builder: unclosed nodes after balancing");
  }
  root->children =
      arena.CopyArray(pending_children.data(), pending_children.size());
  // Final budget check: child-span copies and text spans land at CLOSE
  // time, after the last per-start-tag check, so a document can finish
  // over budget without ever tripping mid-build.
  if (robust::LimitExceeded(arena.budget_bytes(), limits.max_arena_bytes)) {
    return ArenaBudgetExceeded(limits);
  }
  return root;
}

// Step 3 behind an ArenaHandle: shared by the public from-balanced entry
// point and the all-in-one builders. Both tree_build spans (Step 2 in
// LexAndBalance, Step 3 here) land in the same stage histogram.
Result<TagTree> FromBalancedWithHandle(BalancedDocument balanced,
                                       const robust::DocumentLimits& limits,
                                       ArenaHandle arena) {
  DocumentArena& a = *arena.get();
  obs::ScopedTimer timer(obs::Stages().tree_build);
  const size_t document_size = balanced.document->size();
  BalancedStream stream{std::move(balanced.tokens),
                        std::move(balanced.symbols)};
  auto root = BuildFromBalanced(a, stream, document_size, limits);
  if (!root.ok()) return root.status();
  obs::Html().arena_bytes->Set(static_cast<double>(a.bytes_in_use()));
  obs::Html().intern_table_size->Set(
      static_cast<double>(a.interner().size()));
  return TagTree(std::move(arena), *root, std::move(stream.tokens),
                 std::move(stream.symbols), std::move(balanced.document));
}

Result<TagTree> BuildWithArena(std::string_view document,
                               const robust::DocumentLimits& limits,
                               ArenaHandle arena) {
  auto balanced = LexAndBalance(document, limits, *arena.get());
  if (!balanced.ok()) return balanced.status();
  return FromBalancedWithHandle(std::move(balanced).value(), limits,
                                std::move(arena));
}

}  // namespace

Result<BalancedDocument> LexAndBalance(std::string_view document,
                                       const robust::DocumentLimits& limits,
                                       DocumentArena& arena) {
  // The zero-copy lexer borrows the buffer it lexes (html/lexer.h), so the
  // stream's stable document copy is made FIRST and that copy is what gets
  // lexed — behind a unique_ptr, whose heap address survives moves of the
  // BalancedDocument (and of any TagTree later built from it).
  auto doc = std::make_unique<std::string>(document);
  auto lexed = LexHtml(*doc, limits, arena);  // records the lex stage span
  if (!lexed.ok()) return lexed.status();
  obs::ScopedTimer timer(obs::Stages().tree_build);
  auto balanced = BalanceTokens(std::move(lexed).value(), arena, limits);
  if (!balanced.ok()) return balanced.status();
  return BalancedDocument{std::move(balanced->tokens),
                          std::move(balanced->symbols), std::move(doc)};
}

Result<TagTree> BuildTagTreeFromBalanced(BalancedDocument balanced,
                                         const robust::DocumentLimits& limits,
                                         DocumentArena* arena) {
  return FromBalancedWithHandle(std::move(balanced), limits,
                                ArenaHandle(arena));
}

Result<TagTree> BuildTagTree(std::string_view document,
                             const robust::DocumentLimits& limits) {
  return BuildWithArena(document, limits,
                        ArenaHandle(std::make_unique<DocumentArena>()));
}

Result<TagTree> BuildTagTree(std::string_view document) {
  return BuildTagTree(document, robust::DocumentLimits::Production());
}

Result<TagTree> BuildTagTree(std::string_view document,
                             const robust::DocumentLimits& limits,
                             DocumentArena* arena) {
  return BuildWithArena(document, limits, ArenaHandle(arena));
}

}  // namespace webrbd
