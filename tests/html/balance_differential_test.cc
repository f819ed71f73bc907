// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Differential test: LexAndBalance (arena-backed attributes, a token vector
// sized once, Step 2 compacting and merging inside the lexer's vector) must
// reproduce the frozen vector-attribute front end in
// bench/legacy_balance_baseline.cc exactly — the same balanced stream
// (kind, name, offsets, text, attributes, self-closing and synthetic flags,
// symbol names) and, under tight DocumentLimits, the same Status. Runs the
// paper corpora, the template-skew corpus, every adversarial shape, and
// seeded tag soups (the TagSoupFuzzTest soups plus self-closing- and
// comment-heavy ones), each through one warm arena per side, the way a
// batch worker reuses its arena across a chunk.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "fuzz/tag_soup.h"
#include "gen/adversarial.h"
#include "gen/sites.h"
#include "gen/template_skew.h"
#include "html/arena.h"
#include "html/lexer.h"
#include "html/tree_builder.h"
#include "legacy_balance_baseline.h"
#include "robust/limits.h"
#include "util/rng.h"

namespace webrbd {
namespace {

using robust::DocumentLimits;

// Warm arenas, one per side, Reset() before every document.
struct ArenaPair {
  DocumentArena current;
  DocumentArena legacy;
};

// Balances `doc` both ways and compares the outcome field by field.
// Returns the balanced token count (0 on a failed Status).
size_t ExpectSameBalance(std::string_view doc, const DocumentLimits& limits,
                         ArenaPair& arenas) {
  arenas.current.Reset();
  arenas.legacy.Reset();
  auto got = LexAndBalance(doc, limits, arenas.current);
  auto want = bench::LegacyLexAndBalance(doc, limits, arenas.legacy);
  EXPECT_EQ(got.ok(), want.ok())
      << "current: " << got.status().ToString()
      << " / frozen: " << want.status().ToString();
  if (!got.ok() || !want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return 0;
  }
  const std::vector<HtmlToken>& tokens = got->tokens;
  const std::vector<bench::LegacyBalanceToken>& expected = want->tokens;
  EXPECT_EQ(tokens.size(), expected.size());
  EXPECT_EQ(got->symbols.size(), tokens.size());
  EXPECT_EQ(want->symbols.size(), expected.size());
  if (tokens.size() != expected.size() ||
      got->symbols.size() != tokens.size()) {
    return 0;
  }
  const TagNameInterner& current_names = arenas.current.interner();
  const TagNameInterner& legacy_names = arenas.legacy.interner();
  for (size_t i = 0; i < tokens.size(); ++i) {
    const HtmlToken& g = tokens[i];
    const bench::LegacyBalanceToken& w = expected[i];
    SCOPED_TRACE("token " + std::to_string(i));
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.begin, w.begin);
    EXPECT_EQ(g.end, w.end);
    EXPECT_EQ(g.text, w.text);
    EXPECT_EQ(g.self_closing, w.self_closing);
    EXPECT_EQ(g.synthetic, w.synthetic);
    EXPECT_TRUE(std::equal(g.attrs.begin(), g.attrs.end(), w.attrs.begin(),
                           w.attrs.end()));
    EXPECT_EQ(got->symbols[i] == kInvalidTagSymbol,
              want->symbols[i] == kInvalidTagSymbol);
    EXPECT_EQ(current_names.NameOf(got->symbols[i]),
              legacy_names.NameOf(want->symbols[i]));
    if (::testing::Test::HasFailure()) return 0;  // one diff is enough
  }
  return tokens.size();
}

std::vector<std::string> PaperPages() {
  std::vector<std::string> pages;
  for (Domain domain : {Domain::kObituaries, Domain::kCarAds}) {
    for (const auto& doc : gen::GenerateCalibrationCorpus(domain)) {
      pages.push_back(doc.html);
    }
  }
  for (Domain domain : kAllDomains) {
    for (const auto& doc : gen::GenerateTestCorpus(domain)) {
      pages.push_back(doc.html);
    }
  }
  return pages;
}

std::vector<std::string> TemplateSkewPages() {
  gen::TemplateSkewOptions options;
  options.num_templates = 40;
  options.num_pages = 80;
  return gen::GenerateTemplateSkewCorpus(options).pages;
}

std::vector<std::string> AdversarialPages() {
  std::vector<std::string> pages;
  for (gen::AdversarialShape shape : gen::AllAdversarialShapes()) {
    for (size_t scale : {16, 300, 3000}) {
      pages.push_back(gen::RenderAdversarialDocument(shape, scale));
    }
  }
  return pages;
}

std::string Uppercased(std::string doc) {
  for (char& c : doc) c = static_cast<char>(std::toupper(c));
  return doc;
}

TEST(BalanceDifferentialTest, PaperCorporaMatchFrozenBalancer) {
  ArenaPair arenas;
  size_t tokens = 0;
  for (const std::string& page : PaperPages()) {
    tokens += ExpectSameBalance(page, DocumentLimits::Production(), arenas);
    if (HasFailure()) return;
  }
  EXPECT_GT(tokens, 10000u);
}

TEST(BalanceDifferentialTest, TemplateSkewCorpusMatchesFrozenBalancer) {
  ArenaPair arenas;
  size_t tokens = 0;
  for (const std::string& page : TemplateSkewPages()) {
    tokens += ExpectSameBalance(page, DocumentLimits::Production(), arenas);
    if (HasFailure()) return;
  }
  EXPECT_GT(tokens, 10000u);
}

TEST(BalanceDifferentialTest, AdversarialShapesMatchFrozenBalancer) {
  ArenaPair arenas;
  for (const std::string& page : AdversarialPages()) {
    SCOPED_TRACE(fuzz::DescribeInput(page, 120));
    ExpectSameBalance(page, DocumentLimits::Production(), arenas);
    ExpectSameBalance(page, DocumentLimits::Unlimited(), arenas);
    if (HasFailure()) return;
  }
}

TEST(BalanceDifferentialTest, HandWrittenEdgeCases) {
  ArenaPair arenas;
  for (const char* page : {
           "", "text only", "<a>", "</a>", "<br/>", "a<br/>", "<br/>a",
           "a<br/>b<br/>c<br/>d", "<p/><p/></p>", "<a><b/></a>",
           "<a>x</b>", "<a>x</b><!-- c -->", "<a><!-- c --></b>",
           "<a><b></a></b>", "<a>x<b>y</a>z</b>w", "<b/></b></b>",
           "<table><tr><td>1<td>2<tr><td>3</table>",
           "<a x=1 y='2' z=\"3\"/>tail<!x><?p?>", "<A HREF=X>y</a>",
           "<a><b><c>x</b>y</c>z</a>", "</x></y><z>", "<hr><hr><hr>",
           "a<!-- c -->b<!-- d -->c</q>d", "<p><script>x</p></script>y"}) {
    SCOPED_TRACE(page);
    ExpectSameBalance(page, DocumentLimits::Production(), arenas);
  }
}

// (generator variant, seed) — the variant picks the soup's skew.
class BalanceDifferentialSoupTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BalanceDifferentialSoupTest, SoupMatchesFrozenBalancer) {
  const auto [variant, seed_index] = GetParam();
  fuzz::TagSoupOptions options;
  uint64_t seed = 0;
  size_t size = 0;
  switch (variant) {
    case 0:  // the LexerCoversEveryByteInOrder soups
      seed = static_cast<uint64_t>(seed_index) * 7919 + 13;
      size = 2000;
      break;
    case 1:  // the TreeBuilderBalancesAnySoup soups
      seed = static_cast<uint64_t>(seed_index) * 104729 + 7;
      size = 3000;
      break;
    case 2:  // self-closing heavy
      seed = static_cast<uint64_t>(seed_index) * 6151 + 3;
      size = 3000;
      options.self_close_chance = 0.7;
      break;
    default:  // comment heavy
      seed = static_cast<uint64_t>(seed_index) * 3079 + 5;
      size = 3000;
      options.comment_chance = 0.5;
      break;
  }
  Rng rng(seed);
  const std::string doc = fuzz::RandomTagSoup(&rng, size, options);
  SCOPED_TRACE(fuzz::SeedTrace(seed_index, doc));
  ArenaPair arenas;
  EXPECT_GT(ExpectSameBalance(doc, DocumentLimits::Production(), arenas), 0u);
  ExpectSameBalance(Uppercased(doc), DocumentLimits::Production(), arenas);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BalanceDifferentialSoupTest,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 24)));

// Tight caps: every fatal cap must trip with the identical Status, and
// every recoverable one must shape the stream identically. The cap values
// straddle each document's own token count and arena budget.
TEST(BalanceDifferentialLimitsTest, TightCapsMatchFrozenStatusAndStream) {
  std::vector<std::string> pages = {
      TemplateSkewPages()[0],
      PaperPages()[0],
      gen::RenderAdversarialDocument(gen::AdversarialShape::kMegaAttribute,
                                     200),
      gen::RenderAdversarialDocument(gen::AdversarialShape::kUnterminatedQuote,
                                     200),
      gen::RenderAdversarialDocument(gen::AdversarialShape::kDistinctTagStorm,
                                     1500),
      gen::RenderAdversarialDocument(gen::AdversarialShape::kTagStorm, 500),
  };
  Rng rng(4242);
  fuzz::TagSoupOptions soup;
  soup.self_close_chance = 0.4;
  soup.comment_chance = 0.2;
  pages.push_back(fuzz::RandomTagSoup(&rng, 4000, soup));
  pages.push_back(Uppercased(pages.back()));

  ArenaPair arenas;
  // How often the token and arena caps tripped / let the page through:
  // both outcomes must occur, or the sweep tests only one side.
  size_t tripped = 0;
  size_t passed = 0;
  auto tally = [&](size_t balanced) { ++(balanced > 0 ? passed : tripped); };
  for (const std::string& page : pages) {
    SCOPED_TRACE(fuzz::DescribeInput(page, 120));
    DocumentArena probe;
    const size_t raw_tokens = LexHtml(page, probe).value().size();
    ASSERT_GT(raw_tokens, 2u);

    for (size_t cap : {size_t{1}, size_t{2}, raw_tokens / 2, raw_tokens - 2,
                       raw_tokens - 1, raw_tokens, raw_tokens + 1}) {
      DocumentLimits limits = DocumentLimits::Production();
      limits.max_tokens = cap;
      SCOPED_TRACE("max_tokens=" + std::to_string(cap));
      tally(ExpectSameBalance(page, limits, arenas));
    }
    for (size_t cap : {1, 2, 3}) {
      DocumentLimits limits = DocumentLimits::Production();
      limits.max_attributes_per_tag = cap;
      SCOPED_TRACE("max_attributes_per_tag=" + std::to_string(cap));
      ExpectSameBalance(page, limits, arenas);
    }
    for (size_t cap : {1, 3, 32}) {
      DocumentLimits limits = DocumentLimits::Production();
      limits.max_attribute_value_bytes = cap;
      SCOPED_TRACE("max_attribute_value_bytes=" + std::to_string(cap));
      ExpectSameBalance(page, limits, arenas);
    }
    // The budget is checked as each new name is interned, so these run
    // on cold arenas (a warm interner knows every name already). The
    // intern pool grows in 4 KiB chunks and mixed-case names spill a few
    // bytes each, so the caps straddle the first chunks with and without
    // spills on top — and attribute arrays, which are not charged, would
    // push a page over the lower ones if they were.
    for (size_t cap : {1, 64, 4095, 4096, 4097, 4200, 8191, 8192, 8300,
                       12288, 16384, 40000}) {
      DocumentLimits limits = DocumentLimits::Production();
      limits.max_arena_bytes = cap;
      SCOPED_TRACE("max_arena_bytes=" + std::to_string(cap));
      ArenaPair cold;
      tally(ExpectSameBalance(page, limits, cold));
    }
    {
      DocumentLimits limits = DocumentLimits::Production();
      limits.max_document_bytes = page.size() - 1;
      ExpectSameBalance(page, limits, arenas);
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(tripped, 20u);
  EXPECT_GT(passed, 20u);
}

}  // namespace
}  // namespace webrbd
