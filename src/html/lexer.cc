// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// SWAR fast-path lexer. The token-stream SEMANTICS are pinned by the
// frozen pre-SWAR copy in bench/legacy_lexer_baseline.cc and the golden
// equivalence suite (tests/html/lexer_equivalence_test.cc): every control-
// flow decision below — the loop-top max_tokens check, the attribute
// recovery paths, the quoted-value window, the raw-text close rules —
// mirrors the legacy lexer exactly. What changed is HOW bytes move:
//
//   - text runs, raw-text bodies, comment/PI closers, and quoted attribute
//     values are located by util/swar.h bulk scans (8–16 bytes/iteration)
//     instead of per-char loops, and
//   - tokens are zero-copy: name/text/attribute values are string_views of
//     the source buffer; tag/attribute names are lowercased lazily, with
//     an arena spill only when the source spelling is mixed-case (counted
//     in webrbd_html_lexer_name_spills_total), and
//   - tokens are trivially copyable: a start tag's attributes are gathered
//     in one reused scratch vector and copied once into the arena, and the
//     token vector is sized up front from a count of '<' bytes, so it
//     never reallocates.

#include "html/lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "html/tag_metadata.h"
#include "obs/stages.h"
#include "robust/limits.h"
#include "util/string_util.h"
#include "util/swar.h"

namespace webrbd {

namespace {

using robust::DocumentLimits;
using robust::LimitExceeded;

// Byte-class table for the short scans (tag names, attribute names,
// whitespace runs) where a table lookup beats setting up a word loop.
constexpr uint8_t kSpace = 1;         // space \t \n \r \f \v
constexpr uint8_t kTagNameChar = 2;   // [A-Za-z0-9:-]
constexpr uint8_t kAttrNameStop = 4;  // '=' '>' '/' or whitespace
constexpr uint8_t kAlpha = 8;         // [A-Za-z]
constexpr uint8_t kUpper = 16;        // [A-Z]

constexpr std::array<uint8_t, 256> BuildCharClasses() {
  std::array<uint8_t, 256> table{};
  for (const char c : {' ', '\t', '\n', '\r', '\f', '\v'}) {
    table[static_cast<uint8_t>(c)] |= kSpace | kAttrNameStop;
  }
  for (int c = 'a'; c <= 'z'; ++c) table[c] |= kTagNameChar | kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] |= kTagNameChar | kAlpha | kUpper;
  for (int c = '0'; c <= '9'; ++c) table[c] |= kTagNameChar;
  table[static_cast<uint8_t>('-')] |= kTagNameChar;
  table[static_cast<uint8_t>(':')] |= kTagNameChar;
  for (const char c : {'=', '>', '/'}) {
    table[static_cast<uint8_t>(c)] |= kAttrNameStop;
  }
  return table;
}

constexpr std::array<uint8_t, 256> kCharClass = BuildCharClasses();

inline uint8_t Class(char c) { return kCharClass[static_cast<uint8_t>(c)]; }

inline bool Is(char c, uint8_t mask) { return (Class(c) & mask) != 0; }

class Lexer {
 public:
  Lexer(std::string_view doc, const DocumentLimits& limits,
        DocumentArena& arena)
      : doc_(doc), limits_(limits), arena_(arena) {}

  Result<std::vector<HtmlToken>> Lex() {
    if (LimitExceeded(doc_.size(), limits_.max_document_bytes)) {
      obs::Robust().trip_doc_bytes->Increment();
      return Status::ResourceExhausted(
          "document size " + std::to_string(doc_.size()) +
          " exceeds max_document_bytes " +
          std::to_string(limits_.max_document_bytes));
    }
    // Size the token vector exactly once. Every markup token starts at a
    // distinct '<', and every text token is followed by a markup token or
    // ends the document, so 2 * count('<') + 1 bounds the stream. Bytes
    // per token say nothing useful: prose runs ~21-28 bytes per token, a
    // markup-dense template page 5.5. The clamp keeps a document that is
    // all '<' from reserving far past the token cap before it trips.
    size_t bound = 2 * swar::CountByte(doc_, '<') + 1;
    if (limits_.max_tokens != 0) {
      bound = std::min(bound, limits_.max_tokens + 1);
    }
    tokens_.reserve(bound);
    while (pos_ < doc_.size()) {
      if (LimitExceeded(tokens_.size(), limits_.max_tokens)) {
        obs::Robust().trip_tokens->Increment();
        return Status::ResourceExhausted(
            "token stream exceeds max_tokens " +
            std::to_string(limits_.max_tokens));
      }
      if (doc_[pos_] == '<' && TryLexMarkup()) continue;
      LexTextRun();
    }
    FlushText();
    obs::Html().lexer_bytes->Increment(doc_.size());
    obs::Html().lexer_tokens->Increment(tokens_.size());
    if (name_spills_ > 0) {
      obs::Html().lexer_name_spills->Increment(name_spills_);
    }
    return std::move(tokens_);
  }

 private:
  /// The lazy-lowercase step: already-lowercase source bytes are viewed in
  /// place; mixed-case names (`seen` holds kUpper) are lowercased into the
  /// arena once and the copy viewed instead.
  std::string_view LowerName(std::string_view raw, uint8_t seen) {
    if ((seen & kUpper) == 0) return raw;
    ++name_spills_;
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
    // `seen` ORs the classes of the name's bytes: kUpper in it means the
    // name needs lowercasing, known without a second pass.
    uint8_t seen = 0;
    size_t i = name_start;
    for (uint8_t cls;
         i < doc_.size() && ((cls = Class(doc_[i])) & kTagNameChar); ++i) {
      seen |= cls;
    }
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
    HtmlToken& token = tokens_.emplace_back();
    token.kind = is_end ? HtmlToken::Kind::kEndTag : HtmlToken::Kind::kStartTag;
    token.name = LowerName(raw_name, seen);
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

  // Gathers the tag's attributes in attrs_scratch_, then copies them into
  // the arena once.
  void LexAttributes(HtmlToken* token) {
    attrs_scratch_.clear();
    bool attrs_tripped = false;
    for (;;) {
      while (pos_ < doc_.size() && Is(doc_[pos_], kSpace)) ++pos_;
      if (pos_ >= doc_.size() || doc_[pos_] == '>') break;
      if (doc_[pos_] == '/') {
        // Possible XML-style self-closing slash.
        size_t slash = pos_;
        ++pos_;
        while (pos_ < doc_.size() && Is(doc_[pos_], kSpace)) ++pos_;
        if (pos_ < doc_.size() && doc_[pos_] == '>') {
          token->self_closing = true;
          break;
        }
        pos_ = slash + 1;  // stray slash; skip it
        continue;
      }
      // Attribute name.
      const size_t name_start = pos_;
      uint8_t seen = 0;
      for (uint8_t cls; pos_ < doc_.size() &&
                        !((cls = Class(doc_[pos_])) & kAttrNameStop);
           ++pos_) {
        seen |= cls;
      }
      HtmlAttribute attr;
      attr.name = LowerName(doc_.substr(name_start, pos_ - name_start), seen);
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
            obs::Robust().lexer_recoveries->Increment();
            pos_ = value_start;
            LexUnquotedValue(&attr);
          }
        } else {
          LexUnquotedValue(&attr);
        }
      }
      if (attr.name.empty()) continue;
      if (LimitExceeded(attrs_scratch_.size() + 1,
                        limits_.max_attributes_per_tag)) {
        // Recoverable cap: parse (to keep positions in sync) but drop.
        if (!attrs_tripped) {
          attrs_tripped = true;
          obs::Robust().trip_attrs->Increment();
        }
        continue;
      }
      attrs_scratch_.push_back(attr);
    }
    token->attrs =
        arena_.CopyTokenArray(attrs_scratch_.data(), attrs_scratch_.size());
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
      obs::Robust().trip_attr_value->Increment();
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
    HtmlToken& token = tokens_.emplace_back();
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
    HtmlToken& token = tokens_.emplace_back();
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
      HtmlToken& token = tokens_.emplace_back();
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
      HtmlToken& token = tokens_.emplace_back();
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
  uint64_t name_spills_ = 0;
  std::vector<HtmlToken> tokens_;
  std::vector<HtmlAttribute> attrs_scratch_;  // one tag's, reused
};

}  // namespace

Result<std::vector<HtmlToken>> LexHtml(std::string_view document,
                                       const robust::DocumentLimits& limits,
                                       DocumentArena& arena) {
  obs::ScopedTimer timer(obs::Stages().lex);
  Lexer lexer(document, limits, arena);
  return lexer.Lex();
}

Result<std::vector<HtmlToken>> LexHtml(std::string_view document,
                                       DocumentArena& arena) {
  return LexHtml(document, robust::DocumentLimits::Production(), arena);
}

}  // namespace webrbd
