// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Token model for the HTML lexer. The paper's tag-tree construction consumes
// a stream of start-tags, end-tags, plain text, and discardable tokens
// (comments, doctypes, processing instructions).
//
// ZERO-COPY LIFETIME CONTRACT: every view in an HtmlToken borrows either
// the source document buffer passed to LexHtml or the DocumentArena passed
// alongside it. Text, names and attribute values view the document
// verbatim; mixed-case tag/attribute names are lowercased into the arena,
// and each start tag's attribute array lives in the arena (`attrs` is a
// span over it). Tokens are valid only while BOTH outlive them, and an
// arena Reset() ends them like a freed document does. TagTree honors this
// by owning a stable-address copy of the document plus the arena; code
// that must keep token-derived data past extraction copies it into owned
// storage — webrbd_lint's arena-escape rule flags violations in src/.
//
// Every field is a view or a scalar, so HtmlToken is trivially copyable:
// the lexer's token vector and the in-place balancer move tokens with
// plain stores. Keep the one-byte fields first. The struct then has no
// tail padding and copies as four 16-byte moves plus one 8-byte move;
// placed last, they leave tail padding the copy must not write, so it
// ends in a 4-byte move straddling the previous 16-byte store, which
// stalls store forwarding (a token-copy loop measured ~3x slower).

#ifndef WEBRBD_HTML_TOKEN_H_
#define WEBRBD_HTML_TOKEN_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

namespace webrbd {

/// One parsed tag attribute. Names are lowercased; values are unquoted but
/// otherwise verbatim. Both fields view the source buffer (the name views
/// the arena instead when the source spelling was mixed-case).
struct HtmlAttribute {
  std::string_view name;
  std::string_view value;

  bool operator==(const HtmlAttribute& other) const {
    return name == other.name && value == other.value;
  }
};

/// One lexical token of an HTML document. See the lifetime contract above:
/// name/text/attrs are borrowed views, not owned storage.
struct HtmlToken {
  enum class Kind : uint8_t {
    kStartTag,  ///< <name attr=...>
    kEndTag,    ///< </name>
    kText,      ///< plain text run (entities NOT decoded; offsets matter more)
    kComment,   ///< <!-- ... --> or any <! ...> declaration (doctype included)
    kProcessing ///< <? ... > processing instruction
  };

  Kind kind = Kind::kText;

  /// True for XML-style self-closing start tags (<br/>).
  bool self_closing = false;

  /// True for end-tags synthesized by the tree builder (the paper's
  /// "inserted missing end-tags").
  bool synthetic = false;

  /// Lowercased tag name for start/end tags; empty otherwise. Views the
  /// source bytes when they are already lowercase (the overwhelming common
  /// case), or an arena-spilled lowercase copy when they are not.
  std::string_view name;

  /// Attributes of a start tag: a view of an array in the lexer's
  /// DocumentArena (empty for every other token).
  std::span<const HtmlAttribute> attrs;

  /// Byte range [begin, end) of the token in the source document. Synthetic
  /// tokens (inserted missing end-tags) carry a zero-width range at their
  /// insertion point.
  size_t begin = 0;
  size_t end = 0;

  /// Verbatim text for kText tokens — a view of the source bytes.
  std::string_view text;

  bool IsTag() const {
    return kind == Kind::kStartTag || kind == Kind::kEndTag;
  }
};

static_assert(std::is_trivially_copyable_v<HtmlToken>);

}  // namespace webrbd

#endif  // WEBRBD_HTML_TOKEN_H_
