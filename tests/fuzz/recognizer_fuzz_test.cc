// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Differential fuzz driver for the one-pass recognizer. Each seed builds
// random DSL ontologies — keyword phrases, literal alternations, classes,
// \b \B ^ $ anchors, patterns shared across object sets, multi-word
// lexicon entries — and random texts with planted hits, and requires the
// production Recognizer and the frozen per-matcher recognizer
// (bench/legacy_recognizer_baseline.cc) to produce byte-identical
// Data-Record Tables. A second driver does the same for letter-led
// patterns that scan with the reverse start-set automaton, including
// shapes past its state cap. Failures name the seed, the ontology and the
// text.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "extract/recognizer.h"
#include "fuzz/fuzz_util.h"
#include "legacy_recognizer_baseline.h"
#include "ontology/parser.h"
#include "util/rng.h"

namespace webrbd {
namespace {

// Words shared by patterns, keywords, lexicons and texts, so that hits,
// near misses (prefixes, embedded words) and overlaps are common.
const char* const kWords[] = {"died", "on",   "age",  "room", "may",  "mayor",
                              "in",   "inn",  "salt", "lake", "city", "born",
                              "was",  "Ford", "Am",   "grand", "x",   "ab"};
constexpr uint32_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

std::string Word(Rng* rng) { return kWords[rng->Below(kWordCount)]; }

// One value pattern in the regex dialect.
std::string RandomPattern(Rng* rng) {
  static const char* kClasses[] = {"[A-Z][a-z]+", "[0-9]{1,3}", "[a-z]",
                                   "\\d{2}",      "[0-9][0-9,]*", "\\w+",
                                   "[^ ]",        "\\s+"};
  static const char* kAnchors[] = {"\\b", "\\B", "^", "$"};
  std::string out;
  if (rng->Chance(0.3)) out += kAnchors[rng->Below(4)];
  for (int piece = rng->RangeInclusive(1, 3); piece > 0; --piece) {
    switch (rng->Below(5)) {
      case 0:  // literal word
        out += Word(rng);
        break;
      case 1: {  // literal alternation
        out += "(" + Word(rng);
        for (int k = rng->RangeInclusive(1, 3); k > 0; --k) {
          out += "|" + Word(rng);
        }
        out += ")";
        break;
      }
      case 2:
        out += kClasses[rng->Below(8)];
        break;
      case 3:
        out += rng->Chance(0.5) ? " " : "\\$";
        break;
      default:
        out += Word(rng);
        if (rng->Chance(0.5)) out += rng->Chance(0.5) ? "?" : "*";
        break;
    }
  }
  if (rng->Chance(0.3)) out += kAnchors[rng->Below(4)];
  return out;
}

std::string RandomPhrase(Rng* rng) {
  std::string out = Word(rng);
  for (int k = rng->RangeInclusive(0, 2); k > 0; --k) out += " " + Word(rng);
  return out;
}

// An ontology whose object sets draw patterns from one small pool, so the
// same source often appears on several object sets (and twice on one).
std::string RandomOntologyDsl(Rng* rng) {
  std::vector<std::string> pool;
  for (int i = rng->RangeInclusive(1, 5); i > 0; --i) {
    pool.push_back(RandomPattern(rng));
  }
  std::string out = "ontology Fuzz\nentity E\n\n";
  const int object_sets = rng->RangeInclusive(1, 5);
  for (int i = 0; i < object_sets; ++i) {
    out += "objectset S" + std::to_string(i) + "\n";
    int matchers = 0;
    for (int k = rng->RangeInclusive(0, 2); k > 0; --k, ++matchers) {
      out += "  keyword " + RandomPhrase(rng) + "\n";
    }
    for (int p = rng->RangeInclusive(0, 2); p > 0; --p, ++matchers) {
      const uint32_t pick = rng->Below(static_cast<uint32_t>(pool.size()));
      out += "  pattern " + pool[pick] + "\n";
    }
    if (rng->Chance(0.5)) {
      out += "  lexicon " + RandomPhrase(rng);
      for (int e = rng->RangeInclusive(0, 4); e > 0; --e) {
        out += ", " + RandomPhrase(rng);
      }
      out += "\n";
      ++matchers;
    }
    if (matchers == 0) out += "  keyword " + Word(rng) + "\n";
    out += "end\n\n";
  }
  return out;
}

// Text built from the shared words in random case, digits, punctuation,
// whitespace runs and a few raw bytes, with planted phrases.
std::string RandomText(Rng* rng, size_t size) {
  static const char* kSeparators[] = {" ", "  ", "\n", ", ", ". ", "-",
                                      "$",  "\t", "'",  "(", ""};
  std::string out;
  while (out.size() < size) {
    switch (rng->Below(6)) {
      case 0:
        out += std::to_string(rng->Below(2000));
        break;
      case 1:
        out += static_cast<char>(rng->Below(256));
        break;
      default: {
        std::string word = Word(rng);
        for (char& c : word) {
          if (rng->Chance(0.2) && c >= 'a' && c <= 'z') {
            c = static_cast<char>(c - 'a' + 'A');
          }
        }
        out += word;
        break;
      }
    }
    out += kSeparators[rng->Below(11)];
  }
  return out;
}

void ExpectSameTable(const DataRecordTable& expected,
                     const DataRecordTable& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const DataRecordEntry& e = expected.entries()[i];
    const DataRecordEntry& a = actual.entries()[i];
    ASSERT_TRUE(e.descriptor == a.descriptor && e.value == a.value &&
                e.begin == a.begin && e.end == a.end && e.kind == a.kind)
        << "entry " << i << ": expected " << e.descriptor << " '" << e.value
        << "' [" << e.begin << "," << e.end << "), got " << a.descriptor
        << " '" << a.value << "' [" << a.begin << "," << a.end << ")";
  }
}

class RecognizerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RecognizerFuzzTest, MatchesFrozenRecognizer) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2862933555777941757ULL + 5);
  for (int round = 0; round < 4; ++round) {
    const std::string dsl = RandomOntologyDsl(&rng);
    SCOPED_TRACE(fuzz::SeedTrace(GetParam(), dsl));
    auto ontology = ParseOntology(dsl);
    if (!ontology.ok()) continue;  // the generator can emit rejected forms
    auto recognizer = Recognizer::Create(*ontology);
    auto legacy = bench::LegacyRecognizer::Create(*ontology);
    ASSERT_EQ(recognizer.ok(), legacy.ok());
    if (!recognizer.ok()) continue;
    for (int t = 0; t < 4; ++t) {
      const std::string text = RandomText(&rng, 40 + rng.Below(400));
      SCOPED_TRACE(fuzz::SeedTrace(GetParam(), text));
      ExpectSameTable(legacy->Recognize(text), recognizer->Recognize(text));
    }
  }
}

// A value pattern the literal-prefix automaton cannot filter and whose
// start bytes hold a letter, so the recognizer scans it with the reverse
// start-set automaton: letter-class names, a class followed by a suffix
// alternation, and shapes whose reverse determinization blows past the
// per-call state cap.
std::string RandomLetterLedPattern(Rng* rng) {
  switch (rng->Below(6)) {
    case 0:
      return "[A-Z][a-z]+ [A-Z]\\. [A-Z][a-z]+";
    case 1: {
      std::string out = "[A-Z][A-Za-z]+ (" + Word(rng);
      for (int k = rng->RangeInclusive(1, 4); k > 0; --k) {
        out += "|" + Word(rng);
      }
      return out + ")";
    }
    case 2:
      return "\\b[A-Z]{2,5} [0-9]{3}\\b";
    case 3:
      return "(a|b){" + std::to_string(rng->RangeInclusive(4, 20)) + "}a";
    case 4:
      return "([a-z]|ab){" + std::to_string(rng->RangeInclusive(3, 14)) +
             "}(x|" + Word(rng) + ")";
    default:
      return "[a-z]+" + std::string(rng->Chance(0.5) ? " " : "") + Word(rng) +
             (rng->Chance(0.5) ? "\\b" : "");
  }
}

// Letter-led patterns next to the random ones, over the random texts and
// over runs of a and b, where the blow-up shapes hit their state cap.
TEST_P(RecognizerFuzzTest, LetterLedPatternsMatchFrozenRecognizer) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL + 17);
  for (int round = 0; round < 3; ++round) {
    std::string dsl = "ontology Fuzz\nentity E\n\n";
    for (int i = rng.RangeInclusive(1, 4); i > 0; --i) {
      dsl += "objectset L" + std::to_string(i) + "\n  pattern " +
             RandomLetterLedPattern(&rng) + "\n";
      if (rng.Chance(0.3)) dsl += "  pattern " + RandomPattern(&rng) + "\n";
      dsl += "end\n\n";
    }
    SCOPED_TRACE(fuzz::SeedTrace(GetParam(), dsl));
    auto ontology = ParseOntology(dsl);
    if (!ontology.ok()) continue;
    auto recognizer = Recognizer::Create(*ontology);
    auto legacy = bench::LegacyRecognizer::Create(*ontology);
    ASSERT_EQ(recognizer.ok(), legacy.ok());
    if (!recognizer.ok()) continue;
    for (int t = 0; t < 4; ++t) {
      std::string text;
      if (t == 3) {
        for (size_t n = 200 + rng.Below(2000); n > 0; --n) {
          text += rng.Chance(0.02) ? ' ' : (rng.Chance(0.5) ? 'a' : 'b');
        }
      } else {
        text = RandomText(&rng, 40 + rng.Below(600));
      }
      SCOPED_TRACE(fuzz::SeedTrace(GetParam(), text));
      ExpectSameTable(legacy->Recognize(text), recognizer->Recognize(text));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecognizerFuzzTest, ::testing::Range(0, 48));

}  // namespace
}  // namespace webrbd
