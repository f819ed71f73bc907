// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/multi_literal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace webrbd {
namespace {

using Hits = std::vector<std::pair<uint32_t, size_t>>;  // (tag, begin)

Hits ScanAll(const MultiLiteralMatcher& matcher, std::string_view text) {
  Hits hits;
  matcher.Scan(text, [&](uint32_t tag, size_t begin) {
    hits.emplace_back(tag, begin);
  });
  return hits;
}

// Every occurrence of every literal, by brute force, ordered like Scan:
// by end offset, then longer literal first.
Hits BruteForce(const std::vector<MultiLiteralMatcher::Literal>& literals,
                std::string_view text) {
  auto fold = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  std::vector<std::tuple<size_t, size_t, uint32_t, size_t>> found;
  for (size_t l = 0; l < literals.size(); ++l) {
    const std::string& lit = literals[l].text;
    for (size_t begin = 0; begin + lit.size() <= text.size(); ++begin) {
      bool equal = true;
      for (size_t k = 0; k < lit.size() && equal; ++k) {
        equal = fold(text[begin + k]) == fold(lit[k]);
      }
      if (equal) {
        found.emplace_back(begin + lit.size(), SIZE_MAX - lit.size(),
                           literals[l].tag, begin);
      }
    }
  }
  std::sort(found.begin(), found.end());
  Hits hits;
  for (const auto& [end, order, tag, begin] : found) {
    hits.emplace_back(tag, begin);
  }
  return hits;
}

TEST(MultiLiteralMatcherTest, EmptyMatcherReportsNothing) {
  MultiLiteralMatcher none;
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(ScanAll(none, "anything").empty());
  const MultiLiteralMatcher built(std::vector<MultiLiteralMatcher::Literal>{});
  EXPECT_TRUE(built.empty());
  EXPECT_TRUE(ScanAll(built, "anything").empty());
}

TEST(MultiLiteralMatcherTest, ReportsOverlappingAndSuffixHits) {
  // The classic he / she / his / hers set: "ushers" holds she, he, hers.
  const std::vector<MultiLiteralMatcher::Literal> literals = {
      {"he", 0}, {"she", 1}, {"his", 2}, {"hers", 3}};
  const MultiLiteralMatcher matcher(literals);
  EXPECT_EQ(ScanAll(matcher, "ushers"), (Hits{{1, 1}, {0, 2}, {3, 2}}));
  EXPECT_EQ(ScanAll(matcher, "ushers"), BruteForce(literals, "ushers"));
}

TEST(MultiLiteralMatcherTest, MatchesAsciiCaseInsensitively) {
  const MultiLiteralMatcher matcher({{"died", 7}, {"$", 9}});
  EXPECT_EQ(ScanAll(matcher, "DIED Died $5 dIeD"),
            (Hits{{7, 0}, {7, 5}, {9, 10}, {7, 13}}));
}

TEST(MultiLiteralMatcherTest, OneLiteralUnderSeveralTags) {
  const MultiLiteralMatcher matcher({{"instruct", 1}, {"instruct", 4}});
  EXPECT_EQ(ScanAll(matcher, "Instructor: X"), (Hits{{1, 0}, {4, 0}}));
}

TEST(MultiLiteralMatcherTest, AgreesWithBruteForce) {
  const std::vector<MultiLiteralMatcher::Literal> literals = {
      {"age", 0},  {"age ", 1}, {"in ", 2},  {"janu", 3}, {"may ", 3},
      {"aa", 4},   {"aaa", 5},  {"a", 6},    {"\xc3\xa9", 7}, {"19", 8},
      {"ge a", 9}, {"n j", 10}};
  const MultiLiteralMatcher matcher(literals);
  const std::string text =
      "At age 19 in January, May 4 in Jan; aaaa page Ag\xc3\xa9 AGE AGE a";
  EXPECT_EQ(ScanAll(matcher, text), BruteForce(literals, text));
}

}  // namespace
}  // namespace webrbd
