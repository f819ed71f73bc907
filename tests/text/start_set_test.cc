// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The reverse start-set automaton must report every position where a
// match begins (it may report more): then seeding the Pike VM only there
// finds exactly what Find finds. Checked at every position of seeded
// random texts, for anchors, case-insensitive classes and bytes >= 0x80,
// plus the caps that make the recognizer fall back to the plain scan.

#include "text/start_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "text/regex.h"
#include "util/rng.h"

namespace webrbd {
namespace {

Regex CompileCi(const std::string& pattern) {
  RegexOptions options;
  options.case_insensitive = true;
  return Regex::Compile(pattern, options).value();
}

// Letters, digits, spaces, punctuation and raw high bytes, in runs that
// make the patterns below match often.
std::string RandomText(Rng* rng, size_t size) {
  static const char* const kPieces[] = {
      "John",  "A.",     "Smith", " ",      "  ",    "Acme",  "Systems",
      "Group", "CS",     "101",   "abab",   "ba",    "a",     "b",
      ".",     "\n",     "_",     "\xc3\xa9", "\xff", "Room", "x1"};
  std::string out;
  while (out.size() < size) {
    out += kPieces[rng->Below(std::size(kPieces))];
  }
  return out;
}

bool Contains(const std::vector<size_t>& sorted, size_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

struct PatternCase {
  const char* name;  // the test name's suffix
  const char* pattern;
};

// Test names must not carry the pointers' bytes, which change per run.
void PrintTo(const PatternCase& c, std::ostream* os) { *os << c.name; }

class StartSetAutomatonTest : public ::testing::TestWithParam<PatternCase> {};

TEST_P(StartSetAutomatonTest, CoversEveryMatchStartAndSeedsFindExactly) {
  const Regex regex = CompileCi(GetParam().pattern);
  const RegexProgram& program = regex.program();
  const std::optional<StartSetAutomaton> automaton =
      StartSetAutomaton::Build(program);
  ASSERT_TRUE(automaton.has_value()) << GetParam().pattern;
  StartSetAutomaton::Scratch scratch;
  PikeVm vm(program);
  for (int seed = 0; seed < 24; ++seed) {
    Rng rng(static_cast<uint64_t>(seed), /*stream=*/0x57a7);
    const std::string text = RandomText(&rng, rng.Below(300));
    SCOPED_TRACE("seed=" + std::to_string(seed) + " text=\"" + text + "\"");
    std::vector<size_t> starts = {7};  // Scan appends after what is there
    ASSERT_TRUE(automaton->Scan(text, SIZE_MAX, &scratch, &starts));
    ASSERT_EQ(starts.front(), 7u);
    starts.erase(starts.begin());
    ASSERT_TRUE(std::is_sorted(starts.begin(), starts.end()));
    for (size_t pos = 0; pos <= text.size(); ++pos) {
      if (vm.MatchAt(text, pos).has_value()) {
        EXPECT_TRUE(Contains(starts, pos)) << "match at " << pos;
      }
      const std::optional<RegexMatch> found = vm.Find(text, pos);
      const std::optional<RegexMatch> seeded =
          vm.FindAtStarts(text, pos, starts);
      ASSERT_EQ(found.has_value(), seeded.has_value()) << "from " << pos;
      if (found.has_value()) {
        EXPECT_EQ(*found, *seeded) << "from " << pos;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, StartSetAutomatonTest,
    ::testing::Values(
        PatternCase{"Name", "[A-Z][a-z]+ [A-Z]\\. [A-Z][a-z]+"},
        PatternCase{"SuffixAlternation",
                    "[A-Z][A-Za-z]+ (Systems|Group|Solutions)"},
        PatternCase{"WordBounded", "\\b[A-Z]{2,5} [0-9]{3}\\b"},
        PatternCase{"NotWordBoundary", "\\Bab\\B"},
        PatternCase{"TextBegin", "^[a-z]+"},
        PatternCase{"TextEnd", "[a-z]+$"},
        PatternCase{"RepeatedAlternation", "\\b(ab|ba)+\\b"},
        PatternCase{"Utf8Class", "[a-z\xc3\xa9]+ \\d"},
        PatternCase{"HighByte", "[^ ]+\xff"},
        PatternCase{"PerlClasses", "\\w\\W\\w"},
        PatternCase{"BoundedRepeat", "(a|b){4}a"}),
    [](const ::testing::TestParamInfo<PatternCase>& info) {
      return std::string(info.param.name);
    });

TEST(StartSetAutomatonBuildTest, ProgramOverInstructionCapGetsNoAutomaton) {
  const Regex small = CompileCi("[a-z]{10}");
  ASSERT_LE(small.program().insts.size(), StartSetAutomaton::kMaxInstructions);
  EXPECT_TRUE(StartSetAutomaton::Build(small.program()).has_value());
  const Regex large = CompileCi("[a-z]{300}");
  ASSERT_GT(large.program().insts.size(), StartSetAutomaton::kMaxInstructions);
  EXPECT_FALSE(StartSetAutomaton::Build(large.program()).has_value());
}

TEST(StartSetAutomatonBuildTest, EmptyMatchableProgramGetsNoAutomaton) {
  for (const char* pattern : {"a*", "\\b"}) {
    EXPECT_FALSE(StartSetAutomaton::Build(CompileCi(pattern).program()))
        << pattern;
  }
}

// (a|b){16}a read backwards must remember which of the last 17 bytes were
// an 'a': 2^17 states. The scan stops at the state cap, leaving the
// output as it was.
TEST(StartSetAutomatonBuildTest, StateBlowupStopsAtTheCap) {
  const Regex regex = CompileCi("(a|b){16}a");
  const std::optional<StartSetAutomaton> automaton =
      StartSetAutomaton::Build(regex.program());
  ASSERT_TRUE(automaton.has_value());
  Rng rng(3, /*stream=*/0xb10);
  std::string text;
  for (int i = 0; i < 4000; ++i) text += rng.Chance(0.5) ? 'a' : 'b';
  StartSetAutomaton::Scratch scratch;
  std::vector<size_t> starts = {1, 2};
  EXPECT_FALSE(automaton->Scan(text, SIZE_MAX, &scratch, &starts));
  EXPECT_EQ(starts, (std::vector<size_t>{1, 2}));
}

TEST(StartSetAutomatonBuildTest, TooManyStartsStopsAtTheCap) {
  const Regex regex = CompileCi("[a-z]+");
  const std::optional<StartSetAutomaton> automaton =
      StartSetAutomaton::Build(regex.program());
  ASSERT_TRUE(automaton.has_value());
  StartSetAutomaton::Scratch scratch;
  std::vector<size_t> starts;
  EXPECT_FALSE(automaton->Scan("abcdefgh", 7, &scratch, &starts));
  EXPECT_TRUE(starts.empty());
  EXPECT_TRUE(automaton->Scan("abcdefgh", 8, &scratch, &starts));
  EXPECT_EQ(starts.size(), 8u);
}

}  // namespace
}  // namespace webrbd
