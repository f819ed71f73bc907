// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// A FROZEN copy of the HTML front end's Steps 1+2 (LexAndBalance) as they
// were while every token owned a std::vector of attributes: the SWAR
// lexer reserving doc/16 tokens, and a balancer that copies the stream
// into a second vector to drop comments, expand <x/> and intern names,
// then walks it with a std::vector<bool> discard mask, a per-symbol
// std::vector<std::vector<size_t>> of open-stack positions and a
// path-compressed surviving-tag index. It exists for two reasons:
//
//   1. bench_components' BM_LexAndBalanceLegacy — the baseline of CI's
//      lex+balance ratio guard, so the in-place Step 2 is measured against
//      the code it replaced ON THE SAME HARDWARE, and
//   2. tests/html/balance_differential_test.cc — the golden reference
//      whose balanced stream (kinds, names, offsets, text, attributes,
//      synthetic flags, symbol names) and Status under tight
//      DocumentLimits the production path must reproduce.
//
// Do not "modernize" this file; its whole value is not changing. The obs
// counters and stage timers of the original are dropped (a frozen
// baseline must not bump production metrics); the Status of every cap is
// kept exactly.

#ifndef WEBRBD_BENCH_LEGACY_BALANCE_BASELINE_H_
#define WEBRBD_BENCH_LEGACY_BALANCE_BASELINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "html/arena.h"
#include "html/token.h"
#include "robust/limits.h"
#include "util/result.h"

namespace webrbd::bench {

/// The token layout of the time: the same borrowed views as HtmlToken,
/// but each start tag owns its attribute vector.
struct LegacyBalanceToken {
  HtmlToken::Kind kind = HtmlToken::Kind::kText;
  std::string_view name;
  std::vector<HtmlAttribute> attrs;
  size_t begin = 0;
  size_t end = 0;
  std::string_view text;
  bool self_closing = false;
  bool synthetic = false;

  bool IsTag() const {
    return kind == HtmlToken::Kind::kStartTag ||
           kind == HtmlToken::Kind::kEndTag;
  }
};

/// The frozen LexAndBalance result: balanced tokens, their symbols in
/// `arena`'s intern table, and the document copy the tokens view.
struct LegacyBalancedDocument {
  std::vector<LegacyBalanceToken> tokens;
  std::vector<TagSymbol> symbols;
  std::unique_ptr<std::string> document;
};

/// The frozen Steps 1+2: same balanced stream and same Status as
/// webrbd::LexAndBalance at the time. Interns into `arena`'s table and
/// spills mixed-case names into `arena`.
[[nodiscard]] Result<LegacyBalancedDocument> LegacyLexAndBalance(
    std::string_view document, const robust::DocumentLimits& limits,
    DocumentArena& arena);

}  // namespace webrbd::bench

#endif  // WEBRBD_BENCH_LEGACY_BALANCE_BASELINE_H_
