// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Frozen: see legacy_balance_baseline.h. The lexer below is the SWAR
// lexer of src/html/lexer.cc and the balancer is BalanceTokens of
// src/html/tree_builder.cc, both as they were while every token owned a
// std::vector of attributes; only the obs counters and stage timers are
// gone.

#include "legacy_balance_baseline.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "html/tag_metadata.h"
#include "util/string_util.h"
#include "util/swar.h"

namespace webrbd::bench {

namespace {

using robust::DocumentLimits;
using robust::LimitExceeded;

// Byte-class table for the short scans (tag names, attribute names,
// whitespace runs) where a table lookup beats setting up a word loop.
constexpr uint8_t kSpace = 1;         // space \t \n \r \f \v
constexpr uint8_t kTagNameChar = 2;   // [A-Za-z0-9:-]
constexpr uint8_t kAttrNameStop = 4;  // '=' '>' '/' or whitespace
constexpr uint8_t kAlpha = 8;         // [A-Za-z]

constexpr std::array<uint8_t, 256> BuildCharClasses() {
  std::array<uint8_t, 256> table{};
  for (const char c : {' ', '\t', '\n', '\r', '\f', '\v'}) {
    table[static_cast<uint8_t>(c)] |= kSpace | kAttrNameStop;
  }
  for (int c = 'a'; c <= 'z'; ++c) table[c] |= kTagNameChar | kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] |= kTagNameChar | kAlpha;
  for (int c = '0'; c <= '9'; ++c) table[c] |= kTagNameChar;
  table[static_cast<uint8_t>('-')] |= kTagNameChar;
  table[static_cast<uint8_t>(':')] |= kTagNameChar;
  for (const char c : {'=', '>', '/'}) {
    table[static_cast<uint8_t>(c)] |= kAttrNameStop;
  }
  return table;
}

constexpr std::array<uint8_t, 256> kCharClass = BuildCharClasses();

inline bool Is(char c, uint8_t mask) {
  return (kCharClass[static_cast<uint8_t>(c)] & mask) != 0;
}

class LegacyLexer {
 public:
  LegacyLexer(std::string_view doc, const DocumentLimits& limits,
        DocumentArena& arena)
      : doc_(doc), limits_(limits), arena_(arena) {}

  Result<std::vector<LegacyBalanceToken>> Lex() {
    if (LimitExceeded(doc_.size(), limits_.max_document_bytes)) {
      return Status::ResourceExhausted(
          "document size " + std::to_string(doc_.size()) +
          " exceeds max_document_bytes " +
          std::to_string(limits_.max_document_bytes));
    }
    // Pre-size the token vector from the document size. Across the
    // synthetic corpus one token spans ~21–28 bytes of HTML; reserving
    // doc/16 overshoots by a modest constant factor, turning the
    // push_back reallocation cascade (and its token moves, ~15% of lex
    // time when it triggers) into a single allocation for virtually
    // every real document.
    tokens_.reserve(doc_.size() / 16 + 4);
    while (pos_ < doc_.size()) {
      if (LimitExceeded(tokens_.size(), limits_.max_tokens)) {
        return Status::ResourceExhausted(
            "token stream exceeds max_tokens " +
            std::to_string(limits_.max_tokens));
      }
      if (doc_[pos_] == '<' && TryLexMarkup()) continue;
      LexTextRun();
    }
    FlushText();
    return std::move(tokens_);
  }

 private:
  /// The lazy-lowercase step: already-lowercase source bytes (checked
  /// word-at-a-time) are viewed in place; mixed-case names are lowercased
  /// into the arena once and the copy viewed instead.
  std::string_view LowerName(std::string_view raw) {
    if (!ContainsAsciiUpper(raw)) return raw;
    char* out = static_cast<char*>(arena_.Allocate(raw.size(), 1));
    for (size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      out[i] = c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    }
    return {out, raw.size()};
  }

  // Attempts to lex a markup construct at pos_ (which points at '<').
  // Returns false when the '<' is just text.
  bool TryLexMarkup() {
    size_t start = pos_;
    if (start + 1 >= doc_.size()) return false;
    char next = doc_[start + 1];
    if (next == '!') {
      FlushText();
      LexDeclaration();
      return true;
    }
    if (next == '?') {
      FlushText();
      LexProcessing();
      return true;
    }
    bool is_end = next == '/';
    size_t name_start = start + (is_end ? 2 : 1);
    size_t i = name_start;
    while (i < doc_.size() && Is(doc_[i], kTagNameChar)) ++i;
    std::string_view raw_name = doc_.substr(name_start, i - name_start);
    // The scan above only consumed [A-Za-z0-9:-] bytes, so IsValidTagName
    // reduces to "non-empty and starts with a letter" — checked inline on
    // the raw spelling, which equals the legacy lowercase-then-validate
    // order (validity is case-insensitive) without spilling names of
    // stray '<'s that never become tags.
    if (raw_name.empty() || !Is(raw_name[0], kAlpha)) return false;

    FlushText();
    // Build the token in place; LexAttributes appends nothing to tokens_,
    // so the reference stays valid while attributes are filled in.
    LegacyBalanceToken& token = tokens_.emplace_back();
    token.kind = is_end ? HtmlToken::Kind::kEndTag : HtmlToken::Kind::kStartTag;
    token.name = LowerName(raw_name);
    token.begin = start;
    pos_ = i;
    if (!is_end) {
      LexAttributes(&token);
    } else {
      // Skip anything up to '>' (end tags legally have no attributes, but
      // tolerate junk).
      pos_ = swar::FindByte(doc_, pos_, '>');
    }
    if (pos_ < doc_.size() && doc_[pos_] == '>') ++pos_;
    token.end = pos_;
    bool raw_text = token.kind == HtmlToken::Kind::kStartTag &&
                    !token.self_closing && IsRawTextTag(token.name);
    if (raw_text) LexRawText(token.name);
    return true;
  }

  void LexAttributes(LegacyBalanceToken* token) {
    for (;;) {
      while (pos_ < doc_.size() && Is(doc_[pos_], kSpace)) ++pos_;
      if (pos_ >= doc_.size() || doc_[pos_] == '>') return;
      if (doc_[pos_] == '/') {
        // Possible XML-style self-closing slash.
        size_t slash = pos_;
        ++pos_;
        while (pos_ < doc_.size() && Is(doc_[pos_], kSpace)) ++pos_;
        if (pos_ < doc_.size() && doc_[pos_] == '>') {
          token->self_closing = true;
          return;
        }
        pos_ = slash + 1;  // stray slash; skip it
        continue;
      }
      // Attribute name.
      size_t name_start = pos_;
      while (pos_ < doc_.size() && !Is(doc_[pos_], kAttrNameStop)) ++pos_;
      HtmlAttribute attr;
      attr.name = LowerName(doc_.substr(name_start, pos_ - name_start));
      while (pos_ < doc_.size() && Is(doc_[pos_], kSpace)) ++pos_;
      if (pos_ < doc_.size() && doc_[pos_] == '=') {
        ++pos_;
        while (pos_ < doc_.size() && Is(doc_[pos_], kSpace)) ++pos_;
        if (pos_ < doc_.size() && (doc_[pos_] == '"' || doc_[pos_] == '\'')) {
          char quote = doc_[pos_++];
          size_t value_start = pos_;
          // Look for the closing quote only within the attribute-value
          // window; an unterminated quote must not swallow the rest of
          // the document into one attribute.
          size_t window = doc_.size() - value_start;
          if (limits_.max_attribute_value_bytes != 0 &&
              window > limits_.max_attribute_value_bytes) {
            window = limits_.max_attribute_value_bytes;
          }
          size_t hit = swar::FindByte(doc_.substr(0, value_start + window),
                                      value_start, quote);
          if (hit < value_start + window) {
            attr.value = doc_.substr(value_start, hit - value_start);
            pos_ = hit + 1;  // past the closing quote
          } else {
            // Recovery: no closing quote in the window. Rewind and re-lex
            // the region as an unquoted value, so lexing resynchronizes at
            // the next space or '>' instead of at end of input.
            pos_ = value_start;
            LexUnquotedValue(&attr);
          }
        } else {
          LexUnquotedValue(&attr);
        }
      }
      if (attr.name.empty()) continue;
      if (LimitExceeded(token->attrs.size() + 1,
                        limits_.max_attributes_per_tag)) {
        // Recoverable cap: parse (to keep positions in sync) but drop.
        continue;
      }
      token->attrs.push_back(attr);
    }
  }

  // Scans a bare attribute value (up to the next space or '>'), storing at
  // most max_attribute_value_bytes of it.
  void LexUnquotedValue(HtmlAttribute* attr) {
    size_t value_start = pos_;
    while (pos_ < doc_.size() && doc_[pos_] != '>' &&
           !Is(doc_[pos_], kSpace)) {
      ++pos_;
    }
    size_t length = pos_ - value_start;
    if (LimitExceeded(length, limits_.max_attribute_value_bytes)) {
      length = limits_.max_attribute_value_bytes;
    }
    attr->value = doc_.substr(value_start, length);
  }

  // First "-->" at or after `from`; doc_.size() when there is none. A '-'
  // bulk scan plus two byte checks — the first match necessarily starts at
  // a '-', so this equals doc_.find("-->", from).
  size_t FindCommentClose(size_t from) {
    size_t scan = from;
    for (;;) {
      size_t c = swar::FindByte(doc_, scan, '-');
      if (c + 3 > doc_.size()) return doc_.size();
      if (doc_[c + 1] == '-' && doc_[c + 2] == '>') return c;
      scan = c + 1;
    }
  }

  // <!-- comment --> or <!DOCTYPE ...> or any other <!...> declaration.
  void LexDeclaration() {
    size_t start = pos_;
    LegacyBalanceToken& token = tokens_.emplace_back();
    token.kind = HtmlToken::Kind::kComment;
    token.begin = start;
    if (doc_.compare(pos_, 4, "<!--") == 0) {
      size_t close = FindCommentClose(pos_ + 4);
      pos_ = close == doc_.size() ? doc_.size() : close + 3;
    } else {
      size_t close = swar::FindByte(doc_, pos_, '>');
      pos_ = close == doc_.size() ? doc_.size() : close + 1;
    }
    token.end = pos_;
  }

  // <? ... > (or <? ... ?>).
  void LexProcessing() {
    LegacyBalanceToken& token = tokens_.emplace_back();
    token.kind = HtmlToken::Kind::kProcessing;
    token.begin = pos_;
    size_t close = swar::FindByte(doc_, pos_, '>');
    pos_ = close == doc_.size() ? doc_.size() : close + 1;
    token.end = pos_;
  }

  // Consumes raw text up to (not including) the matching </name ...>.
  // One bulk '<' scan with O(1) rejects ('</' then the byte after the
  // name) before the case-insensitive name compare — the legacy lexer
  // compared the full "</name" needle at every '<' in the body, which the
  // raw-text-close-storm adversarial shape turns pathological.
  void LexRawText(std::string_view name) {
    size_t body_start = pos_;
    size_t scan = pos_;
    size_t body_end = doc_.size();
    const size_t close_size = 2 + name.size();  // "</" + name
    while (scan < doc_.size()) {
      size_t candidate = swar::FindByte(doc_, scan, '<');
      if (candidate >= doc_.size()) break;
      if (candidate + 1 < doc_.size() && doc_[candidate + 1] == '/' &&
          candidate + close_size <= doc_.size()) {
        char after = candidate + close_size < doc_.size()
                         ? doc_[candidate + close_size]
                         : '>';
        if ((after == '>' || Is(after, kSpace)) &&
            AsciiEqualsIgnoreCase(doc_.substr(candidate + 2, name.size()),
                                  name)) {
          body_end = candidate;
          break;
        }
      }
      scan = candidate + 1;
    }
    if (body_end > body_start) {
      LegacyBalanceToken& token = tokens_.emplace_back();
      token.kind = HtmlToken::Kind::kText;
      token.begin = body_start;
      token.end = body_end;
      token.text = doc_.substr(body_start, body_end - body_start);
    }
    pos_ = body_end;
  }

  // Accumulates text up to the next '<'.
  void LexTextRun() {
    if (text_start_ == std::string_view::npos) text_start_ = pos_;
    pos_ = swar::FindByte(doc_, pos_ + (doc_[pos_] == '<' ? 1 : 0), '<');
    // Note: when the '<' at pos_ turns out not to start a tag, the main
    // loop calls back into LexTextRun and we continue the same run.
  }

  void FlushText() {
    if (text_start_ == std::string_view::npos) return;
    size_t end = pos_;
    if (end > text_start_) {
      LegacyBalanceToken& token = tokens_.emplace_back();
      token.kind = HtmlToken::Kind::kText;
      token.begin = text_start_;
      token.end = end;
      token.text = doc_.substr(text_start_, end - text_start_);
    }
    text_start_ = std::string_view::npos;
  }

  std::string_view doc_;
  const DocumentLimits limits_;
  DocumentArena& arena_;
  size_t pos_ = 0;
  size_t text_start_ = std::string_view::npos;
  std::vector<LegacyBalanceToken> tokens_;
};

// --- Step 2: balance the token stream -------------------------------------

// The balanced stream plus the interned symbol of each token (text tokens
// carry kInvalidTagSymbol). Interning happens here, in the same pass that
// filters the raw stream, so Step 3 and every downstream heuristic compare
// integers instead of name strings.
struct BalancedStream {
  std::vector<LegacyBalanceToken> tokens;
  std::vector<TagSymbol> symbols;
};

struct OpenTag {
  TagSymbol symbol = kInvalidTagSymbol;
  size_t token_index = 0;  // index of the start tag in the filtered stream
};

// Answers "first surviving tag at or after index i" in amortized
// near-constant time. skip_[i] starts as the nearest tag at or after i
// (discarded or not); Resolve() hops over tags discarded since then and
// path-compresses the hops, so repeated queries never rescan a stretch of
// discarded tags. Discards are permanent, which keeps the compressed links
// valid: everything strictly between a link's source and target is, and
// stays, discarded. This replaces a forward rescan per unclosed tag that
// made Step 2 O(n^2) on stray-end-tag / unclosed-tag storms.
class SurvivingTagIndex {
 public:
  SurvivingTagIndex(const std::vector<LegacyBalanceToken>& tokens,
                    const std::vector<bool>& discard)
      : discard_(discard), skip_(tokens.size() + 1) {
    skip_[tokens.size()] = tokens.size();
    for (size_t i = tokens.size(); i-- > 0;) {
      skip_[i] = tokens[i].IsTag() ? i : skip_[i + 1];
    }
  }

  /// Index of the first non-discarded tag at or after `from`, or
  /// tokens.size() when none remains.
  size_t Resolve(size_t from) {
    path_.clear();
    size_t i = from;
    size_t j = skip_[i];
    while (j < discard_.size() && discard_[j]) {
      path_.push_back(i);
      i = j + 1;
      j = skip_[i];
    }
    for (size_t p : path_) skip_[p] = j;
    return j;
  }

 private:
  const std::vector<bool>& discard_;
  std::vector<size_t> skip_;
  std::vector<size_t> path_;  // reused across queries
};

LegacyBalanceToken SyntheticEndTag(
    const std::vector<LegacyBalanceToken>& tokens, std::string_view name,
    size_t insert_before) {
  LegacyBalanceToken token;
  token.kind = HtmlToken::Kind::kEndTag;
  token.name = name;
  token.synthetic = true;
  size_t offset = insert_before < tokens.size() ? tokens[insert_before].begin
                  : tokens.empty()              ? 0
                                   : tokens.back().end;
  token.begin = offset;
  token.end = offset;
  return token;
}

Status InternOverflow() {
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
  return Status::ResourceExhausted(
      "tag tree + tag-name intern table exceed max_arena_bytes " +
      std::to_string(limits.max_arena_bytes));
}

// Implements the paper's Step 2 on the token stream: drops useless tokens
// and inserts missing end tags so that the result is balanced and properly
// nested. An unclosed tag's synthesized end-tag is placed just before the
// next tag after its start-tag, which is exactly the paper's region rule.
//
// Near-linear by construction: matching an end tag consults a per-symbol
// index of open-stack positions (instead of scanning the whole stack), and
// placing a synthesized end tag consults the path-compressed
// SurvivingTagIndex (instead of rescanning the token stream).
Result<BalancedStream> BalanceTokens(std::vector<LegacyBalanceToken> raw,
                                     DocumentArena& arena,
                                     const robust::DocumentLimits& limits) {
  TagNameInterner& interner = arena.interner();
  // Direct-mapped memo in front of the interner's hash map: a
  // markup-dense page interns the same handful of names hundreds of
  // times, and the per-call map lookup is the single largest cost of this
  // whole pass. Keyed by (first byte, length) — a collision or a cold
  // name just falls through to the real Intern, so the memo can only
  // return symbols the interner itself produced.
  struct InternMemoEntry {
    std::string_view name;
    TagSymbol symbol = kInvalidTagSymbol;
  };
  std::array<InternMemoEntry, 32> intern_memo;

  // Discard comments / declarations / processing instructions up front
  // (the paper's "useless" <!... tags), expand self-closing tags, and
  // intern every surviving tag name. The merge below may append a few
  // synthesized end tags; the extra headroom lets the in-place path run
  // without a mid-stream reallocation on typical markup.
  std::vector<LegacyBalanceToken> tokens;
  std::vector<TagSymbol> symbols;
  const size_t headroom = raw.size() + raw.size() / 16 + 8;
  tokens.reserve(headroom);
  symbols.reserve(headroom);
  for (LegacyBalanceToken& token : raw) {
    if (token.kind == HtmlToken::Kind::kComment ||
        token.kind == HtmlToken::Kind::kProcessing) {
      continue;
    }
    TagSymbol symbol = kInvalidTagSymbol;
    if (token.IsTag()) {
      // First byte, last byte, and length — enough to spread the markup
      // vocabulary (notably td/tt/tr, which share first byte and length).
      const size_t first = static_cast<unsigned char>(
          token.name.empty() ? 0 : token.name.front());
      const size_t last = static_cast<unsigned char>(
          token.name.empty() ? 0 : token.name.back());
      const size_t slot =
          (first * 31 + last * 7 + token.name.size()) % intern_memo.size();
      InternMemoEntry& memo = intern_memo[slot];
      if (memo.name == token.name) {
        symbol = memo.symbol;
      } else {
        const size_t names_before = interner.size();
        symbol = interner.Intern(token.name);
        if (symbol == kInvalidTagSymbol) return InternOverflow();
        if (interner.size() != names_before &&
            robust::LimitExceeded(
                arena.bytes_in_use() + interner.storage_bytes(),
                limits.max_arena_bytes)) {
          return ArenaBudgetExceeded(limits);
        }
        memo = {token.name, symbol};
      }
    }
    if (token.kind == HtmlToken::Kind::kStartTag && token.self_closing) {
      LegacyBalanceToken end;
      end.kind = HtmlToken::Kind::kEndTag;
      end.name = token.name;
      end.synthetic = true;
      end.begin = token.end;
      end.end = token.end;
      token.self_closing = false;
      tokens.push_back(std::move(token));
      symbols.push_back(symbol);
      tokens.push_back(std::move(end));
      symbols.push_back(symbol);
      continue;
    }
    tokens.push_back(std::move(token));
    symbols.push_back(symbol);
  }

  std::vector<OpenTag> stack;
  // Stack positions of each currently-open tag symbol, in increasing
  // order; back() is the innermost open tag of that symbol. Indexed by
  // symbol — the intern table keeps these ids dense.
  std::vector<std::vector<size_t>> open_by_symbol;
  // (insert_before token index, synthesized end tag) pairs, collected in
  // close order and stable-sorted by index before the merge — same-index
  // ends keep their close order.
  struct PendingEnd {
    LegacyBalanceToken token;
    TagSymbol symbol;
  };
  std::vector<std::pair<size_t, PendingEnd>> insertions;
  std::vector<bool> discard(tokens.size(), false);
  size_t discarded = 0;
  // Built lazily: an unclosed tag's end usually lands a token or two past
  // its start (void <hr>/<br> markup), found by a short forward scan. The
  // path-compressed index is only materialized when a scan would
  // degenerate — long discarded stretches from stray-end-tag storms.
  std::optional<SurvivingTagIndex> surviving;

  auto resolve_surviving = [&](size_t from) {
    const size_t scan_limit = std::min(tokens.size(), from + 64);
    for (size_t j = from; j < scan_limit; ++j) {
      if (tokens[j].IsTag() && !discard[j]) return j;
    }
    if (scan_limit == tokens.size()) return tokens.size();
    if (!surviving.has_value()) surviving.emplace(tokens, discard);
    return surviving->Resolve(from);
  };

  auto close_unmatched = [&](const OpenTag& open) {
    size_t at = resolve_surviving(open.token_index + 1);
    insertions.emplace_back(
        at, PendingEnd{
                SyntheticEndTag(tokens, tokens[open.token_index].name, at),
                open.symbol});
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const LegacyBalanceToken& token = tokens[i];
    if (token.kind == HtmlToken::Kind::kStartTag) {
      const TagSymbol symbol = symbols[i];
      if (symbol >= open_by_symbol.size()) open_by_symbol.resize(symbol + 1);
      open_by_symbol[symbol].push_back(stack.size());
      stack.push_back(OpenTag{symbol, i});
    } else if (token.kind == HtmlToken::Kind::kEndTag) {
      // Innermost open tag of the same symbol, if any.
      const TagSymbol symbol = symbols[i];
      if (symbol >= open_by_symbol.size() || open_by_symbol[symbol].empty()) {
        discard[i] = true;  // end tag with no corresponding start: useless
        ++discarded;
        continue;
      }
      size_t match = open_by_symbol[symbol].back();
      // Pop everything above the match (synthesizing their end tags,
      // innermost first) plus the match itself, unindexing each popped
      // entry: the entry being popped is always the innermost — and thus
      // the last-indexed — occurrence of its symbol.
      for (size_t s = stack.size(); s-- > match;) {
        open_by_symbol[stack[s].symbol].pop_back();
        if (s > match) close_unmatched(stack[s]);
      }
      stack.resize(match);
    }
  }
  // Tags still open at end of input.
  for (size_t s = stack.size(); s-- > 0;) {
    close_unmatched(stack[s]);
  }

  // Already balanced (nothing discarded, nothing synthesized): the
  // filtered stream IS the result — no merge pass, no re-copy.
  if (insertions.empty() && discarded == 0) {
    return BalancedStream{std::move(tokens), std::move(symbols)};
  }

  // Merge: emit synthesized ends scheduled before each index, then the
  // surviving original token. Two sorted streams, one pointer walk.
  std::stable_sort(
      insertions.begin(), insertions.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  // Nothing discarded and room reserved: merge IN PLACE, shifting the
  // tail backward past each insertion point instead of re-copying the
  // whole stream into fresh vectors. Writing back-to-front keeps every
  // unread original ahead of the write cursor, and same-index insertions
  // — ascending in the sorted vector — are emitted in order by walking
  // them from the back.
  if (discarded == 0 &&
      tokens.capacity() >= tokens.size() + insertions.size()) {
    const size_t original = tokens.size();
    tokens.resize(original + insertions.size());
    symbols.resize(original + insertions.size());
    size_t write = tokens.size();
    size_t pending = insertions.size();
    for (size_t i = original;; --i) {
      while (pending > 0 && insertions[pending - 1].first == i) {
        --pending;
        --write;
        tokens[write] = std::move(insertions[pending].second.token);
        symbols[write] = insertions[pending].second.symbol;
      }
      if (i == 0) break;
      --write;
      if (write != i - 1) {
        tokens[write] = std::move(tokens[i - 1]);
        symbols[write] = symbols[i - 1];
      }
    }
    return BalancedStream{std::move(tokens), std::move(symbols)};
  }

  BalancedStream balanced;
  balanced.tokens.reserve(tokens.size() + insertions.size());
  balanced.symbols.reserve(tokens.size() + insertions.size());
  size_t next_insertion = 0;
  for (size_t i = 0; i <= tokens.size(); ++i) {
    while (next_insertion < insertions.size() &&
           insertions[next_insertion].first == i) {
      PendingEnd& end = insertions[next_insertion].second;
      balanced.tokens.push_back(std::move(end.token));
      balanced.symbols.push_back(end.symbol);
      ++next_insertion;
    }
    if (i < tokens.size() && !discard[i]) {
      balanced.tokens.push_back(std::move(tokens[i]));
      balanced.symbols.push_back(symbols[i]);
    }
  }
  return balanced;
}

}  // namespace

Result<LegacyBalancedDocument> LegacyLexAndBalance(
    std::string_view document, const robust::DocumentLimits& limits,
    DocumentArena& arena) {
  auto doc = std::make_unique<std::string>(document);
  LegacyLexer lexer(*doc, limits, arena);
  auto lexed = lexer.Lex();
  if (!lexed.ok()) return lexed.status();
  auto balanced = BalanceTokens(std::move(lexed).value(), arena, limits);
  if (!balanced.ok()) return balanced.status();
  return LegacyBalancedDocument{std::move(balanced->tokens),
                                std::move(balanced->symbols), std::move(doc)};
}

}  // namespace webrbd::bench
