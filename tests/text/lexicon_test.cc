// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/lexicon.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace webrbd {
namespace {

TEST(LexiconTest, EmptyLexicon) {
  Lexicon lexicon;
  EXPECT_TRUE(lexicon.empty());
  EXPECT_EQ(lexicon.size(), 0u);
  EXPECT_TRUE(lexicon.FindAll("anything at all").empty());
  EXPECT_FALSE(lexicon.Contains("anything"));
}

TEST(LexiconTest, SingleWords) {
  Lexicon lexicon({"Ford", "Honda"});
  EXPECT_EQ(lexicon.size(), 2u);
  EXPECT_TRUE(lexicon.Contains("ford"));
  EXPECT_TRUE(lexicon.Contains("HONDA"));
  EXPECT_FALSE(lexicon.Contains("Toyota"));

  auto matches = lexicon.FindAll("A Ford and a honda.");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].entry, "ford");
  EXPECT_EQ(matches[0].begin, 2u);
  EXPECT_EQ(matches[0].end, 6u);
  EXPECT_EQ(matches[1].entry, "honda");
}

TEST(LexiconTest, WordBoundariesRespected) {
  Lexicon lexicon({"art"});
  EXPECT_TRUE(lexicon.FindAll("the art of").size() == 1);
  EXPECT_TRUE(lexicon.FindAll("state of the artform").empty());
  EXPECT_TRUE(lexicon.FindAll("smart").empty());
}

TEST(LexiconTest, MultiWordPhrases) {
  Lexicon lexicon({"Salt Lake City", "Grand Am"});
  auto matches = lexicon.FindAll("Moved to salt lake city in a Grand Am.");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].entry, "salt lake city");
  EXPECT_EQ(matches[1].entry, "grand am");
}

TEST(LexiconTest, LongestPhrasePreferred) {
  Lexicon lexicon({"Salt", "Salt Lake City"});
  auto matches = lexicon.FindAll("in Salt Lake City today");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].entry, "salt lake city");
}

TEST(LexiconTest, PhrasePrefixFallsBackToShorter) {
  Lexicon lexicon({"Salt", "Salt Lake City"});
  auto matches = lexicon.FindAll("pass the salt lake");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].entry, "salt");
}

TEST(LexiconTest, NonOverlappingLeftToRight) {
  Lexicon lexicon({"a b", "b c"});
  auto matches = lexicon.FindAll("a b c");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].entry, "a b");
}

TEST(LexiconTest, ApostrophesAndHyphensStayInWords) {
  Lexicon lexicon({"O'Brien", "F-150"});
  EXPECT_EQ(lexicon.FindAll("Mr. o'brien drives an F-150.").size(), 2u);
}

TEST(LexiconTest, DuplicatesIgnored) {
  Lexicon lexicon;
  lexicon.Add("Ford");
  lexicon.Add("ford");
  lexicon.Add("FORD");
  EXPECT_EQ(lexicon.size(), 1u);
}

TEST(LexiconTest, WhitespaceNormalizedInPhrases) {
  Lexicon lexicon({"  New   York  "});
  EXPECT_TRUE(lexicon.Contains("new york"));
  EXPECT_EQ(lexicon.FindAll("in New\n York city").size(), 1u);
}

TEST(LexiconTest, EmptyEntryIgnored) {
  Lexicon lexicon;
  lexicon.Add("");
  lexicon.Add("   ");
  EXPECT_TRUE(lexicon.empty());
}

TEST(LexiconTest, CountMatchesAgreesWithFindAll) {
  Lexicon lexicon({"red", "blue"});
  const std::string text = "red blue red green red";
  EXPECT_EQ(lexicon.CountMatches(text), lexicon.FindAll(text).size());
  EXPECT_EQ(lexicon.CountMatches(text), 4u);
}

TEST(LexiconTest, MatchSpansAreAccurate) {
  Lexicon lexicon({"grand am"});
  const std::string text = "1996 Grand Am for sale";
  auto matches = lexicon.FindAll(text);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(text.substr(matches[0].begin, matches[0].end - matches[0].begin),
            "Grand Am");
}

// Add inserts in place: whatever the insertion order, every bucket stays
// longest-phrase-first, so the longest entry at a position wins.
TEST(LexiconTest, PhraseOrderIndependentOfInsertionOrder) {
  const std::vector<std::vector<std::string>> orders = {
      {"salt", "salt lake", "salt lake city"},
      {"salt lake city", "salt lake", "salt"},
      {"salt lake", "salt", "salt lake city"},
      {"salt lake", "salt lake city", "salt"},
  };
  for (const auto& order : orders) {
    Lexicon lexicon(order);
    EXPECT_EQ(lexicon.size(), 3u);
    auto matches = lexicon.FindAll("salt lake city; salt lake; salt");
    ASSERT_EQ(matches.size(), 3u);
    EXPECT_EQ(matches[0].entry, "salt lake city");
    EXPECT_EQ(matches[1].entry, "salt lake");
    EXPECT_EQ(matches[2].entry, "salt");
    std::vector<size_t> lengths;
    lexicon.ForEachPhrase([&](const std::vector<std::string>& words) {
      lengths.push_back(words.size());
    });
    EXPECT_EQ(lengths, (std::vector<size_t>{3, 2, 1}));
  }
}

TEST(LexiconTest, DuplicatePhrasesRejectedInAnyForm) {
  Lexicon lexicon;
  lexicon.Add("Salt Lake City");
  lexicon.Add("salt   lake city");
  lexicon.Add("SALT LAKE\tCITY");
  lexicon.Add("salt lake");
  lexicon.Add("Salt  Lake");
  EXPECT_EQ(lexicon.size(), 2u);
  size_t phrases = 0;
  lexicon.ForEachPhrase([&](const std::vector<std::string>&) { ++phrases; });
  EXPECT_EQ(phrases, 2u);
}

TEST(LexiconTest, CountMatchesEqualsFindAllSize) {
  Lexicon lexicon({"Ford", "Grand Am", "Grand", "F-150", "O'Brien", "c++"});
  for (const char* text :
       {"", "ford", "Grand Am grand am Grand", "grand grand am am",
        "F-150 f-150s O'Brien o'brien's C++ c++", "no hits here at all",
        "Ford,Ford;FORD.ford grand\nam"}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(lexicon.CountMatches(text), lexicon.FindAll(text).size());
  }
}

TEST(LexiconWordsTest, TokenizesLowercasedWordRuns) {
  LexiconWords words;
  words.Tokenize("The F-150, O'Brien's C++ & TCP/IP #1!");
  std::vector<std::string> lower;
  for (size_t i = 0; i < words.size(); ++i) {
    lower.emplace_back(words.lower(i));
  }
  EXPECT_EQ(lower, (std::vector<std::string>{"the", "f-150", "o'brien's",
                                             "c++", "tcp/ip", "#1"}));
  EXPECT_EQ(words.begin(1), 4u);
  EXPECT_EQ(words.end(1), 9u);
  words.Tokenize("again");  // buffers are reused
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words.lower(0), "again");
}

// One shared tokenization matches each lexicon exactly as its own FindAll.
TEST(LexiconSetTest, SharedPassEqualsPerLexiconFindAll) {
  const Lexicon makes({"Ford", "Honda", "Grand"});
  const Lexicon models({"Grand Am", "Accord", "F-150", "Civic"});
  const Lexicon empty;
  const Lexicon places({"salt lake city", "salt", "grand junction"});
  const LexiconSet set({&makes, &models, &empty, &places});
  ASSERT_EQ(set.size(), 4u);
  const std::string text =
      "Ford F-150 in Salt Lake City; Honda Accord, grand am, Grand Junction "
      "salt lake GRAND civic";
  LexiconWords words;
  words.Tokenize(text);
  std::vector<uint32_t> ids;
  set.Lookup(words, &ids);
  const Lexicon* lexicons[] = {&makes, &models, &empty, &places};
  for (size_t l = 0; l < 4; ++l) {
    SCOPED_TRACE(l);
    std::vector<std::pair<size_t, size_t>> shared;
    set.ForEachMatch(l, ids, [&](size_t first, size_t count) {
      shared.emplace_back(words.begin(first), words.end(first + count - 1));
    });
    std::vector<std::pair<size_t, size_t>> own;
    for (const LexiconMatch& match : lexicons[l]->FindAll(text)) {
      own.emplace_back(match.begin, match.end);
    }
    EXPECT_EQ(shared, own);
  }
  EXPECT_TRUE(LexiconSet({&empty}).empty());
}

}  // namespace
}  // namespace webrbd
