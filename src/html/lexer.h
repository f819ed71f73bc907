// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#ifndef WEBRBD_HTML_LEXER_H_
#define WEBRBD_HTML_LEXER_H_

#include <string_view>
#include <vector>

#include "html/arena.h"
#include "html/token.h"
#include "robust/limits.h"
#include "util/result.h"

namespace webrbd {

/// Tokenizes an HTML document into tags, text runs, comments, and
/// processing instructions.
///
/// The lexer is forgiving, in keeping with 1998-era markup: a '<' that does
/// not open a plausible tag is treated as text; unterminated constructs are
/// closed at end of input; attribute values may be single-quoted,
/// double-quoted, or bare; a quoted value whose closing quote never comes
/// is re-lexed as unquoted (counted in robust.lexer_recoveries) instead of
/// swallowing the rest of the document. <script>/<style> bodies are
/// consumed as raw text.
///
/// ZERO-COPY: the returned tokens BORROW `document` and `arena` (which
/// holds each start tag's attribute array and the rare mixed-case name
/// spill — see html/token.h). The caller must keep both alive, and the
/// arena un-Reset(), for as long as it uses the tokens; `document` must
/// therefore be stable storage, not a temporary. Hot paths scan
/// word-at-a-time via util/swar.h (SSE2/NEON under the WEBRBD_SIMD build
/// option).
///
/// The lexer never fails on document *shape* — only on documents that
/// exceed the fatal DocumentLimits caps (document bytes, token count),
/// which return kResourceExhausted. Under DocumentLimits::Unlimited() the
/// common path is LexHtml(doc, limits, arena).value().
[[nodiscard]] Result<std::vector<HtmlToken>> LexHtml(
    std::string_view document, const robust::DocumentLimits& limits,
    DocumentArena& arena);

/// Convenience overload using the production default limits. The same
/// borrowing contract applies.
[[nodiscard]] Result<std::vector<HtmlToken>> LexHtml(std::string_view document,
                                                     DocumentArena& arena);

}  // namespace webrbd

#endif  // WEBRBD_HTML_LEXER_H_
