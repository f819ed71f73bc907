// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Unit coverage for the robustness layer (robust/limits.h): every
// DocumentLimits cap trips on the adversarial shape built to trip it,
// increments its documented counter, degrades-or-fails exactly as the
// contract in docs/robustness.md says, and goes quiet in unlimited mode.

#include "robust/limits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/adversarial.h"
#include "html/arena.h"
#include "html/lexer.h"
#include "html/tree_builder.h"
#include "obs/stages.h"
#include "util/status.h"

namespace webrbd {
namespace {

using gen::AdversarialShape;
using gen::RenderAdversarialDocument;
using robust::DocumentLimits;
using robust::LimitExceeded;

TEST(DocumentLimitsTest, ZeroMeansUnlimited) {
  EXPECT_FALSE(LimitExceeded(1'000'000'000, 0));
  EXPECT_FALSE(LimitExceeded(10, 10));
  EXPECT_TRUE(LimitExceeded(11, 10));

  const DocumentLimits unlimited = DocumentLimits::Unlimited();
  EXPECT_EQ(unlimited.max_document_bytes, 0u);
  EXPECT_EQ(unlimited.max_tokens, 0u);
  EXPECT_EQ(unlimited.max_tree_depth, 0u);
  EXPECT_EQ(unlimited.max_attributes_per_tag, 0u);
  EXPECT_EQ(unlimited.max_attribute_value_bytes, 0u);
  EXPECT_EQ(unlimited.max_regex_closure_depth, 0u);
  EXPECT_NE(unlimited.ToString().find("unlimited"), std::string::npos);
}

TEST(DocumentLimitsTest, ProductionDefaultsAreFinite) {
  const DocumentLimits production = DocumentLimits::Production();
  EXPECT_GT(production.max_document_bytes, 0u);
  EXPECT_GT(production.max_tokens, 0u);
  EXPECT_GT(production.max_tree_depth, 0u);
  EXPECT_GT(production.max_attributes_per_tag, 0u);
  EXPECT_GT(production.max_attribute_value_bytes, 0u);
  EXPECT_GT(production.max_regex_closure_depth, 0u);
  EXPECT_EQ(production.ToString().find("unlimited"), std::string::npos);
}

TEST(DocumentLimitsTest, DocumentBytesCapTripsLexer) {
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_document_bytes = 16;
  const uint64_t before = obs::Robust().trip_doc_bytes->count();
  DocumentArena arena;
  auto tokens = LexHtml("<html><body><p>well past sixteen bytes</p>", limits,
                        arena);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(tokens.status().message().find("max_document_bytes"),
            std::string::npos);
  EXPECT_EQ(obs::Robust().trip_doc_bytes->count(), before + 1);
}

TEST(DocumentLimitsTest, TokenCountCapTripsLexer) {
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_tokens = 8;
  const uint64_t before = obs::Robust().trip_tokens->count();
  const std::string doc =
      RenderAdversarialDocument(AdversarialShape::kTagStorm, 50);
  DocumentArena arena;
  auto tokens = LexHtml(doc, limits, arena);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(tokens.status().message().find("max_tokens"), std::string::npos);
  EXPECT_EQ(obs::Robust().trip_tokens->count(), before + 1);
}

TEST(DocumentLimitsTest, TokenReserveIsBoundedByAnglesAndTheTokenCap) {
  // The lexer sizes its token vector once, from a count of '<' bytes,
  // clamped at max_tokens + 1: 300 KB of "<a>" under a cap of 1000 must
  // still fail the ordinary way, after reserving room for 1001 tokens
  // rather than 200001.
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_tokens = 1000;
  std::string storm;
  for (int i = 0; i < 100'000; ++i) storm += "<a>";
  const uint64_t before = obs::Robust().trip_tokens->count();
  DocumentArena arena;
  auto tripped = LexHtml(storm, limits, arena);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(obs::Robust().trip_tokens->count(), before + 1);

  // A successful lex never outgrows the reserve: 2 * count('<') + 1
  // bounds the stream, and the cap clamps it.
  std::vector<std::string> docs = {
      "", "no markup at all", "<", "a<b", "<<<<", "x<br/>y<br/>z",
      "<p>one<p>two<!-- c -->three<?pi?>", storm.substr(0, 300)};
  for (AdversarialShape shape : gen::AllAdversarialShapes()) {
    docs.push_back(RenderAdversarialDocument(shape, 200));
  }
  for (const std::string& doc : docs) {
    SCOPED_TRACE(doc.substr(0, 80));
    const size_t angles =
        static_cast<size_t>(std::count(doc.begin(), doc.end(), '<'));
    DocumentArena probe;
    auto lexed = LexHtml(doc, DocumentLimits::Unlimited(), probe);
    ASSERT_TRUE(lexed.ok());
    const size_t tokens = lexed->size();
    EXPECT_LE(lexed->capacity(), 2 * angles + 2);
    for (size_t cap : {tokens, tokens + 5, size_t{4'000'000}}) {
      DocumentLimits capped = DocumentLimits::Production();
      capped.max_tokens = cap;
      arena.Reset();
      auto within = LexHtml(doc, capped, arena);
      ASSERT_TRUE(within.ok()) << "max_tokens=" << cap;
      EXPECT_EQ(within->size(), tokens);
      EXPECT_LE(within->capacity(), std::min(2 * angles + 2, cap + 1))
          << "max_tokens=" << cap;
    }
  }
}

TEST(DocumentLimitsTest, TreeDepthCapTripsBuilder) {
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_tree_depth = 16;
  const uint64_t before = obs::Robust().trip_depth->count();
  auto tree = BuildTagTree(
      RenderAdversarialDocument(AdversarialShape::kDepthBomb, 100), limits);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(tree.status().message().find("max_tree_depth"), std::string::npos);
  EXPECT_EQ(obs::Robust().trip_depth->count(), before + 1);
}

TEST(DocumentLimitsTest, NestingAtTheCapIsAccepted) {
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_tree_depth = 32;
  // 16 divs + html + body = 18 < 32.
  auto tree = BuildTagTree(
      RenderAdversarialDocument(AdversarialShape::kDepthBomb, 16), limits);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_GE(tree->NodeCount(), 18u);
}

TEST(DocumentLimitsTest, ProductionDepthClearsFuzzCorpusDepth) {
  // tests/fuzz/html_structure_fuzz_test.cc nests to depth ~350; the
  // production cap must sit above it so fuzzing never trips limits.
  auto tree = BuildTagTree(
      RenderAdversarialDocument(AdversarialShape::kDepthBomb, 400));
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
}

TEST(DocumentLimitsTest, AttributeCountCapDropsExcessAttributes) {
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_attributes_per_tag = 4;
  std::string doc = "<html><body><div";
  for (int i = 0; i < 20; ++i) {
    doc += " a" + std::to_string(i) + "=\"v\"";
  }
  doc += ">x</div></body></html>";
  const uint64_t before = obs::Robust().trip_attrs->count();
  DocumentArena arena;
  auto tokens = LexHtml(doc, limits, arena);
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  const HtmlToken* div = nullptr;
  for (const HtmlToken& token : *tokens) {
    if (token.kind == HtmlToken::Kind::kStartTag && token.name == "div") {
      div = &token;
    }
  }
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->attrs.size(), 4u);
  // One trip per offending tag, not one per dropped attribute.
  EXPECT_EQ(obs::Robust().trip_attrs->count(), before + 1);
}

TEST(DocumentLimitsTest, AttributeValueCapTruncatesMegaAttribute) {
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_attribute_value_bytes = 32;
  const uint64_t trips_before = obs::Robust().trip_attr_value->count();
  const uint64_t recoveries_before = obs::Robust().lexer_recoveries->count();
  // Tokens borrow the document, so it must outlive the attr assertions.
  const std::string doc =
      RenderAdversarialDocument(AdversarialShape::kMegaAttribute, 100);
  DocumentArena arena;
  auto tokens = LexHtml(doc, limits, arena);
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  const HtmlToken* div = nullptr;
  for (const HtmlToken& token : *tokens) {
    if (token.kind == HtmlToken::Kind::kStartTag && token.name == "div") {
      div = &token;
    }
  }
  ASSERT_NE(div, nullptr);
  ASSERT_FALSE(div->attrs.empty());
  EXPECT_LE(div->attrs[0].value.size(), 32u);
  EXPECT_GT(obs::Robust().trip_attr_value->count(), trips_before);
  EXPECT_GT(obs::Robust().lexer_recoveries->count(), recoveries_before);
}

TEST(DocumentLimitsTest, UnlimitedModeTripsNothing) {
  const DocumentLimits unlimited = DocumentLimits::Unlimited();
  const uint64_t fatal_before = obs::Robust().FatalTripTotal();
  for (AdversarialShape shape : gen::AllAdversarialShapes()) {
    auto tree =
        BuildTagTree(RenderAdversarialDocument(shape, 256), unlimited);
    EXPECT_TRUE(tree.ok()) << gen::AdversarialShapeName(shape) << ": "
                           << tree.status().ToString();
  }
  EXPECT_EQ(obs::Robust().FatalTripTotal(), fatal_before);
}

TEST(DocumentLimitsTest, ArenaBytesCapCountsInternPool) {
  // distinct-tag-storm: thousands of never-repeated tag names. The tag
  // TREE for such a page is small, but the monotonic intern pool grows by
  // every name; max_arena_bytes must charge that pool, or the storm
  // bypasses the cap entirely.
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_arena_bytes = 64 << 10;  // 64 KiB
  const uint64_t before = obs::Robust().trip_arena_bytes->count();
  auto tree = BuildTagTree(
      RenderAdversarialDocument(AdversarialShape::kDistinctTagStorm, 4000),
      limits);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(tree.status().message().find("max_arena_bytes"),
            std::string::npos);
  EXPECT_EQ(obs::Robust().trip_arena_bytes->count(), before + 1);
}

TEST(DocumentLimitsTest, InternPoolAccountingSurvivesArenaReset) {
  // The intern pool outlives Reset() by design (warm-arena reuse). The
  // accounting must follow: a second storm document with all-new names
  // (different scale => disjoint name prefix) trips a budget the first
  // document fit under.
  // Scale 1500 builds a ~216 KiB tree plus a ~16 KiB intern pool
  // (232,808 bytes); a 236 KiB budget clears that, but not the same tree
  // with the pool grown to ~28 KiB by a second round of all-new names
  // (245,240 bytes).
  DocumentLimits limits = DocumentLimits::Production();
  limits.max_arena_bytes = 236 << 10;
  DocumentArena arena;
  auto first = BuildTagTree(
      RenderAdversarialDocument(AdversarialShape::kDistinctTagStorm, 1500),
      limits, &arena);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const size_t retained = arena.interner().storage_bytes();
  EXPECT_GT(retained, 0u);

  arena.Reset();
  EXPECT_EQ(arena.interner().storage_bytes(), retained);
  auto second = BuildTagTree(
      RenderAdversarialDocument(AdversarialShape::kDistinctTagStorm, 1501),
      limits, &arena);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(second.status().message().find("max_arena_bytes"),
            std::string::npos);
}

TEST(DocumentLimitsTest, DistinctTagStormDegradesCleanlyUnderProduction) {
  // Under stock production limits the storm must resolve per-document —
  // either a clean build or a clean kResourceExhausted, never a crash,
  // and the arena stays within the cap either way.
  const DocumentLimits production = DocumentLimits::Production();
  DocumentArena arena;
  auto tree = BuildTagTree(
      RenderAdversarialDocument(AdversarialShape::kDistinctTagStorm, 8000),
      production, &arena);
  if (!tree.ok()) {
    EXPECT_EQ(tree.status().code(), Status::Code::kResourceExhausted);
  }
  EXPECT_LE(arena.bytes_in_use() + arena.interner().storage_bytes(),
            production.max_arena_bytes);
}

TEST(DocumentLimitsTest, EveryShapeIsDeterministic) {
  for (AdversarialShape shape : gen::AllAdversarialShapes()) {
    EXPECT_EQ(RenderAdversarialDocument(shape, 64),
              RenderAdversarialDocument(shape, 64))
        << gen::AdversarialShapeName(shape);
    EXPECT_FALSE(RenderAdversarialDocument(shape, 64).empty());
  }
}

}  // namespace
}  // namespace webrbd
