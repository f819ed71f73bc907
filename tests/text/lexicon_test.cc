// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/lexicon.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

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
  LexiconTokens tokens;
  set.Tokenize(text, &tokens);
  const Lexicon* lexicons[] = {&makes, &models, &empty, &places};
  for (size_t l = 0; l < 4; ++l) {
    SCOPED_TRACE(l);
    std::vector<std::pair<size_t, size_t>> shared;
    set.ForEachMatch(l, tokens.ids(), [&](size_t first, size_t count) {
      shared.emplace_back(tokens.begin(first), tokens.end(first + count - 1));
    });
    std::vector<std::pair<size_t, size_t>> own;
    for (const LexiconMatch& match : lexicons[l]->FindAll(text)) {
      own.emplace_back(match.begin, match.end);
    }
    EXPECT_EQ(shared, own);
  }
  EXPECT_TRUE(LexiconSet({&empty}).empty());
}

// Phrase words are matched token by token, and tokens are split at any
// non-word byte, so a phrase spans punctuation as well as whitespace.
TEST(LexiconTest, PhraseMatchesAcrossAnyNonWordRun) {
  const Lexicon places({"salt lake city"});
  const std::vector<LexiconMatch> matches =
      places.FindAll("in Salt, Lake City");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].begin, 3u);
  EXPECT_EQ(matches[0].end, 18u);
  EXPECT_EQ(matches[0].entry, "salt lake city");

  const LexiconSet set({&places});
  LexiconTokens tokens;
  set.Tokenize("in Salt, Lake City", &tokens);
  std::vector<std::pair<size_t, size_t>> shared;
  set.ForEachMatch(0, tokens.ids(), [&](size_t first, size_t count) {
    shared.emplace_back(tokens.begin(first), tokens.end(first + count - 1));
  });
  EXPECT_EQ(shared, (std::vector<std::pair<size_t, size_t>>{{3, 18}}));
}

// Word pieces for the fused-scan texts: vocabulary words in mixed case,
// near misses, the in-word punctuation ' - + / #, separators, bytes >= 0x80
// and runs long enough to make tokens of 64 bytes and more.
std::string RandomLexiconText(Rng* rng, size_t size) {
  static const char* const kPieces[] = {
      "Ford",  "FORD",   "ford's", "Grand",     "am",      "Am",    "Salt",
      "lake",  "CITY",   "f-150",  "F-150s",    "c++",     "C#",    "tcp/ip",
      "o'brien", " ",    "  ",     ", ",        ".",       "\n",   "-",
      "#",     "/",      "'",      "\xc3\xa9", "\xff",  "x",     "zz",
      "grandam", "a-b-c-d-e-f-g-h-i-j-k-l-m-n-o-p-q-r-s-t-u-v-w-x-y-z-"};
  std::string out;
  while (out.size() < size) {
    const char* piece = kPieces[rng->Below(std::size(kPieces))];
    out += piece;
    if (rng->Chance(0.05)) {
      // A long word-byte run: one token well past 64 bytes.
      out += std::string(60 + rng->Below(20), "abcdef"[rng->Below(6)]);
    }
  }
  return out;
}

// The fused scan (tokenize, hash and look up in one pass, unknown runs
// collapsed) matches each lexicon exactly as its own FindAll, on seeded
// random texts.
TEST(LexiconSetFusedScanTest, EqualsPerLexiconFindAllOnRandomTexts) {
  const std::string long_word(70, 'a');
  const Lexicon makes({"Ford", "Honda", "Grand", "F-150", "C++", "C#"});
  const Lexicon models({"Grand Am", "Accord", "ford f-150", "tcp/ip",
                        "O'Brien", long_word});
  const Lexicon empty;
  const Lexicon places({"salt lake city", "salt", "lake", "x zz x",
                        "caf\xc3\xa9", "\xff"});
  const Lexicon* lexicons[] = {&makes, &models, &empty, &places};
  const LexiconSet set({&makes, &models, &empty, &places});
  LexiconTokens tokens;  // reused across texts, as the recognizer does
  for (int seed = 0; seed < 64; ++seed) {
    Rng rng(static_cast<uint64_t>(seed), /*stream=*/0x1e71);
    std::string text = RandomLexiconText(&rng, rng.Below(400));
    if (seed % 8 == 0) text += " " + long_word;
    SCOPED_TRACE("seed=" + std::to_string(seed) + " text=\"" + text + "\"");
    set.Tokenize(text, &tokens);
    for (size_t l = 0; l < std::size(lexicons); ++l) {
      SCOPED_TRACE(l);
      std::vector<std::pair<size_t, size_t>> shared;
      set.ForEachMatch(l, tokens.ids(), [&](size_t first, size_t count) {
        shared.emplace_back(tokens.begin(first),
                            tokens.end(first + count - 1));
      });
      std::vector<std::pair<size_t, size_t>> own;
      for (const LexiconMatch& match : lexicons[l]->FindAll(text)) {
        own.emplace_back(match.begin, match.end);
      }
      ASSERT_EQ(shared, own);
    }
  }
}

// A vocabulary large enough to regrow the lookup table several times
// keeps every word findable, and words repeated across lexicons share one
// id.
TEST(LexiconSetFusedScanTest, LargeVocabularyEqualsPerLexiconFindAll) {
  std::vector<std::string> first_entries;
  std::vector<std::string> second_entries;
  for (int i = 0; i < 1500; ++i) {
    first_entries.push_back("w" + std::to_string(i));
    if (i % 3 == 0) {
      second_entries.push_back("w" + std::to_string(i) + " w" +
                               std::to_string(i + 1));
    }
  }
  const Lexicon first(first_entries);
  const Lexicon second(second_entries);
  const LexiconSet set({&first, &second});
  std::string text;
  for (int i = 0; i < 3000; i += 7) text += "W" + std::to_string(i) + " x ";
  text += "w300 w301 w1499 w1500";
  LexiconTokens tokens;
  set.Tokenize(text, &tokens);
  const Lexicon* lexicons[] = {&first, &second};
  for (size_t l = 0; l < std::size(lexicons); ++l) {
    SCOPED_TRACE(l);
    std::vector<std::pair<size_t, size_t>> shared;
    set.ForEachMatch(l, tokens.ids(), [&](size_t first_token, size_t count) {
      shared.emplace_back(tokens.begin(first_token),
                          tokens.end(first_token + count - 1));
    });
    std::vector<std::pair<size_t, size_t>> own;
    for (const LexiconMatch& match : lexicons[l]->FindAll(text)) {
      own.emplace_back(match.begin, match.end);
    }
    EXPECT_FALSE(own.empty());
    EXPECT_EQ(shared, own);
  }
}

// With no vocabulary, a scan produces no tokens at all.
TEST(LexiconSetFusedScanTest, EmptyVocabularyYieldsNoTokens) {
  const Lexicon empty;
  for (const LexiconSet& set : {LexiconSet(), LexiconSet({&empty, &empty})}) {
    EXPECT_TRUE(set.empty());
    LexiconTokens tokens;
    set.Tokenize("Ford Grand Am in Salt Lake City", &tokens);
    EXPECT_EQ(tokens.size(), 0u);
    EXPECT_TRUE(tokens.ids().empty());
  }
}

}  // namespace
}  // namespace webrbd
