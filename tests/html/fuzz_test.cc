// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Randomized robustness tests: the lexer and tree builder must uphold
// their invariants on arbitrary tag soup — the paper's corpus is the open
// web, where every malformation occurs.

#include <gtest/gtest.h>

#include "fuzz/fuzz_util.h"
#include "fuzz/tag_soup.h"
#include "html/arena.h"
#include "html/lexer.h"
#include "html/tree_builder.h"
#include "legacy_lexer_baseline.h"

namespace webrbd {
namespace {

class TagSoupFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TagSoupFuzzTest, LexerCoversEveryByteInOrder) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 13;
  Rng rng(seed);
  const std::string doc = fuzz::RandomTagSoup(&rng, 2000);
  SCOPED_TRACE("rng seed=" + std::to_string(seed));
  SCOPED_TRACE(fuzz::SeedTrace(GetParam(), doc));
  DocumentArena arena;
  auto tokens = LexHtml(doc, arena);
  ASSERT_TRUE(tokens.ok());
  size_t pos = 0;
  for (const HtmlToken& token : *tokens) {
    ASSERT_EQ(token.begin, pos) << "gap or overlap at byte " << pos;
    ASSERT_GE(token.end, token.begin);
    pos = token.end;
  }
  EXPECT_EQ(pos, doc.size());

  // Differential check against the frozen pre-SWAR lexer: the fast path
  // must produce the identical token stream on arbitrary soup.
  auto legacy = bench::LegacyLexHtml(doc, robust::DocumentLimits::Production());
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(tokens->size(), legacy->size());
  for (size_t i = 0; i < tokens->size(); ++i) {
    const HtmlToken& got = (*tokens)[i];
    const bench::LegacyHtmlToken& want = (*legacy)[i];
    ASSERT_EQ(got.kind, want.kind) << "token " << i;
    ASSERT_EQ(got.name, want.name) << "token " << i;
    ASSERT_EQ(got.text, want.text) << "token " << i;
    ASSERT_EQ(got.begin, want.begin) << "token " << i;
    ASSERT_EQ(got.end, want.end) << "token " << i;
    ASSERT_EQ(got.self_closing, want.self_closing) << "token " << i;
    ASSERT_EQ(got.attrs.size(), want.attrs.size()) << "token " << i;
    for (size_t a = 0; a < got.attrs.size(); ++a) {
      ASSERT_EQ(got.attrs[a].name, want.attrs[a].name)
          << "token " << i << " attr " << a;
      ASSERT_EQ(got.attrs[a].value, want.attrs[a].value)
          << "token " << i << " attr " << a;
    }
  }
}

TEST_P(TagSoupFuzzTest, TreeBuilderBalancesAnySoup) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 104729 + 7;
  Rng rng(seed);
  const std::string doc = fuzz::RandomTagSoup(&rng, 3000);
  SCOPED_TRACE("rng seed=" + std::to_string(seed));
  SCOPED_TRACE(fuzz::SeedTrace(GetParam(), doc));
  auto tree = BuildTagTree(doc);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  // Invariant 1: the rewritten token stream is balanced and properly
  // nested.
  std::vector<std::string> stack;
  for (const HtmlToken& token : tree->tokens()) {
    if (token.kind == HtmlToken::Kind::kStartTag) {
      stack.emplace_back(token.name);
    } else if (token.kind == HtmlToken::Kind::kEndTag) {
      ASSERT_FALSE(stack.empty());
      ASSERT_EQ(stack.back(), token.name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());

  // Invariant 2: regions nest — children inside parents, token spans
  // strictly inside, byte regions monotone.
  PreOrderVisit(tree->root(), [&](const TagNode& node, int depth) {
    if (depth == 0) return;
    EXPECT_LE(node.region_begin, node.region_end);
    for (const auto& child : node.children) {
      EXPECT_GE(child->region_begin, node.region_begin);
      EXPECT_LE(child->region_end, node.region_end);
      EXPECT_GT(child->token_begin, node.token_begin);
      EXPECT_LT(child->token_end, node.token_end);
    }
  });

  // Invariant 3: every text byte of the document is preserved in the
  // stream (comments/declarations excluded by construction).
  size_t text_bytes = 0;
  for (const HtmlToken& token : tree->tokens()) {
    if (token.kind == HtmlToken::Kind::kText) text_bytes += token.text.size();
  }
  DocumentArena arena;
  auto raw = LexHtml(doc, arena);
  size_t raw_text_bytes = 0;
  for (const HtmlToken& token : *raw) {
    if (token.kind == HtmlToken::Kind::kText) {
      raw_text_bytes += token.text.size();
    }
  }
  EXPECT_EQ(text_bytes, raw_text_bytes);
}

TEST_P(TagSoupFuzzTest, BuildIsDeterministic) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 31 + 1;
  Rng rng(seed);
  const std::string doc = fuzz::RandomTagSoup(&rng, 1500);
  SCOPED_TRACE("rng seed=" + std::to_string(seed));
  SCOPED_TRACE(fuzz::SeedTrace(GetParam(), doc));
  auto a = BuildTagTree(doc);
  auto b = BuildTagTree(doc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToAsciiArt(), b->ToAsciiArt());
  EXPECT_EQ(a->tokens().size(), b->tokens().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TagSoupFuzzTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace webrbd
