// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "html/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "html/tree_builder.h"
#include "robust/limits.h"

namespace webrbd {
namespace {

TEST(TagNameInternerTest, InternsAndResolvesNames) {
  TagNameInterner interner;
  const TagSymbol hr = interner.Intern("hr");
  const TagSymbol br = interner.Intern("br");
  EXPECT_NE(hr, kInvalidTagSymbol);
  EXPECT_NE(br, kInvalidTagSymbol);
  EXPECT_NE(hr, br);
  EXPECT_EQ(interner.Intern("hr"), hr);  // idempotent
  EXPECT_EQ(interner.NameOf(hr), "hr");
  EXPECT_EQ(interner.NameOf(br), "br");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(TagNameInternerTest, FindDoesNotIntern) {
  TagNameInterner interner;
  EXPECT_EQ(interner.Find("div"), kInvalidTagSymbol);
  EXPECT_EQ(interner.size(), 0u);
  const TagSymbol div = interner.Intern("div");
  EXPECT_EQ(interner.Find("div"), div);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(TagNameInternerTest, NameBytesAreOwnedByTheInterner) {
  TagNameInterner interner;
  TagSymbol symbol;
  {
    std::string transient = "blockquote";
    symbol = interner.Intern(transient);
    transient.assign(transient.size(), 'x');  // scribble the source
  }
  EXPECT_EQ(interner.NameOf(symbol), "blockquote");
}

TEST(TagNameInternerTest, CacheNeverConfusesCollidingNames) {
  // 676 two-letter names over a 64-slot cache: many share a slot and a
  // length, so every repeat below is either a cache hit on the right name
  // or a miss — never another name's symbol. Mixed-case spellings map to
  // the lowercase symbol.
  TagNameInterner interner;
  std::vector<std::string> names;
  for (char a = 'a'; a <= 'z'; ++a) {
    for (char b = 'a'; b <= 'z'; ++b) names.push_back({a, b});
  }
  std::vector<TagSymbol> symbols;
  for (const std::string& name : names) {
    symbols.push_back(interner.Intern(name));
  }
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < names.size(); ++i) {
      const size_t j = (i * 7 + static_cast<size_t>(round)) % names.size();
      ASSERT_EQ(interner.Intern(names[j]), symbols[j]) << names[j];
      ASSERT_EQ(interner.NameOf(symbols[j]), names[j]);
    }
  }
  EXPECT_EQ(interner.Intern("QZ"), interner.Intern("qz"));
  EXPECT_EQ(interner.size(), names.size());
}

TEST(DocumentArenaTest, TokenArraysAreLeftOutOfTheBudget) {
  // CopyTokenArray's bytes are in use but not charged to max_arena_bytes;
  // every other allocation is, and the intern pool is added on top.
  DocumentArena arena;
  const uint64_t values[] = {1, 2, 3};
  arena.CopyArray(values, 3);
  const size_t charged = arena.bytes_in_use();
  EXPECT_EQ(arena.budget_bytes(), charged);
  std::span<const uint64_t> token = arena.CopyTokenArray(values, 3);
  ASSERT_EQ(token.size(), 3u);
  EXPECT_EQ(token[2], 3u);
  EXPECT_GT(arena.bytes_in_use(), charged);
  EXPECT_EQ(arena.budget_bytes(), charged);
  arena.interner().Intern("p");
  EXPECT_EQ(arena.budget_bytes(),
            charged + arena.interner().storage_bytes());
  arena.Reset();
  EXPECT_EQ(arena.budget_bytes(), arena.interner().storage_bytes());
}

TEST(DocumentArenaTest, AllocationsAreAlignedAndDisjoint) {
  DocumentArena arena;
  std::vector<std::pair<char*, size_t>> blocks;
  for (size_t size : {1u, 7u, 64u, 1000u, 4096u}) {
    void* p = arena.Allocate(size, alignof(std::max_align_t));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
    std::memset(p, 0xAB, size);  // must be writable without overlap
    blocks.emplace_back(static_cast<char*>(p), size);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t j = i + 1; j < blocks.size(); ++j) {
      const bool disjoint = blocks[i].first + blocks[i].second <=
                                blocks[j].first ||
                            blocks[j].first + blocks[j].second <=
                                blocks[i].first;
      EXPECT_TRUE(disjoint) << i << " overlaps " << j;
    }
  }
  EXPECT_GE(arena.bytes_in_use(), 1u + 7u + 64u + 1000u + 4096u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_in_use());
}

TEST(DocumentArenaTest, GrowsPastTheFirstBlock) {
  DocumentArena arena;
  // Far beyond the 64 KiB minimum block: forces several block allocations.
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate(8 << 10, 8);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x5A, 8 << 10);
  }
  EXPECT_GE(arena.bytes_in_use(), 100u * (8u << 10));
}

TEST(DocumentArenaTest, ResetRetainsBlocksAndInternTable) {
  DocumentArena arena;
  const TagSymbol td = arena.interner().Intern("td");
  for (int i = 0; i < 50; ++i) arena.Allocate(4096, 8);
  const size_t reserved = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Warm reuse: the blocks stay, the interned symbol stays.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.interner().Find("td"), td);
  EXPECT_EQ(arena.interner().NameOf(td), "td");
  // And the retained space is re-bumped, not re-malloc'd.
  for (int i = 0; i < 50; ++i) arena.Allocate(4096, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(DocumentArenaTest, CopyStringAndConcat) {
  DocumentArena arena;
  std::string_view head = arena.CopyString("Hello, ");
  EXPECT_EQ(head, "Hello, ");
  std::string_view joined = arena.Concat(head, "world");
  EXPECT_EQ(joined, "Hello, world");
  // Concat of a non-tail view copies rather than corrupting.
  std::string_view other = arena.CopyString("XYZ");
  std::string_view rejoined = arena.Concat(joined, "!");
  EXPECT_EQ(rejoined, "Hello, world!");
  EXPECT_EQ(other, "XYZ");
}

TEST(DocumentArenaTest, CopyArrayRoundTrips) {
  DocumentArena arena;
  const int values[] = {1, 2, 3, 4, 5};
  std::span<int> copy = arena.CopyArray(values, 5);
  ASSERT_EQ(copy.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(copy[static_cast<size_t>(i)], i + 1);
  std::span<int> empty = arena.CopyArray(static_cast<const int*>(nullptr), 0);
  EXPECT_TRUE(empty.empty());
}

// The tree builder must reproduce identical trees out of a reused arena —
// the batch engine's per-chunk reuse depends on Reset() leaving no residue.
TEST(DocumentArenaTest, TreeBuilderReusesArenaAcrossDocuments) {
  const std::string doc_a =
      "<html><body><h1>A</h1><hr>one<hr>two<hr>three</body></html>";
  const std::string doc_b = "<ul><li>x<li>y<li>z</ul>";

  DocumentArena arena;
  std::vector<std::string> warm;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& doc : {doc_a, doc_b}) {
      arena.Reset();
      auto tree =
          BuildTagTree(doc, robust::DocumentLimits::Production(), &arena);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      warm.push_back(tree->ToAsciiArt());
    }
  }
  auto cold_a = BuildTagTree(doc_a);
  auto cold_b = BuildTagTree(doc_b);
  ASSERT_TRUE(cold_a.ok());
  ASSERT_TRUE(cold_b.ok());
  for (size_t i = 0; i < warm.size(); i += 2) {
    EXPECT_EQ(warm[i], cold_a->ToAsciiArt()) << "round " << i / 2;
    EXPECT_EQ(warm[i + 1], cold_b->ToAsciiArt()) << "round " << i / 2;
  }
  // After three rounds the arena footprint is the high-water mark of one
  // document, not the sum of six.
  EXPECT_LT(arena.bytes_reserved(), 1u << 20);
}

TEST(DocumentArenaTest, ArenaBytesLimitTripsResourceExhausted) {
  robust::DocumentLimits limits = robust::DocumentLimits::Unlimited();
  limits.max_arena_bytes = 4 << 10;  // absurdly small
  std::string doc = "<html><body>";
  for (int i = 0; i < 2000; ++i) doc += "<p>text</p>";
  doc += "</body></html>";
  auto tree = BuildTagTree(doc, limits);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), Status::Code::kResourceExhausted);
}

TEST(DocumentArenaTest, UnlimitedLimitsDisableTheArenaCap) {
  std::string doc = "<html><body>";
  for (int i = 0; i < 2000; ++i) doc += "<p>text</p>";
  doc += "</body></html>";
  auto tree = BuildTagTree(doc, robust::DocumentLimits::Unlimited());
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
}

TEST(TagTreeSymbolTest, TokenSymbolsMatchTokenNames) {
  auto tree = BuildTagTree("<div><hr>a<hr>b</div><p>tail</p>").value();
  const auto& tokens = tree.tokens();
  const auto& symbols = tree.token_symbols();
  ASSERT_EQ(tokens.size(), symbols.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].IsTag()) {
      ASSERT_NE(symbols[i], kInvalidTagSymbol) << i;
      EXPECT_EQ(tree.NameOf(symbols[i]), tokens[i].name) << i;
    } else {
      EXPECT_EQ(symbols[i], kInvalidTagSymbol) << i;
    }
  }
  EXPECT_EQ(tree.SymbolOf("hr"), tree.root().children[0]->children[0]->symbol);
  EXPECT_EQ(tree.SymbolOf("nonexistent"), kInvalidTagSymbol);
}

TEST(TagTreeSymbolTest, NodesCarryInternedSymbols) {
  auto tree = BuildTagTree("<table><tr><td>1</td></tr></table>").value();
  const TagNode* table = tree.root().children[0];
  EXPECT_EQ(table->name, "table");
  EXPECT_EQ(tree.NameOf(table->symbol), "table");
  const TagNode* tr = table->children[0];
  const TagNode* td = tr->children[0];
  EXPECT_EQ(tree.NameOf(tr->symbol), "tr");
  EXPECT_EQ(tree.NameOf(td->symbol), "td");
  EXPECT_NE(tr->symbol, td->symbol);
}

}  // namespace
}  // namespace webrbd
