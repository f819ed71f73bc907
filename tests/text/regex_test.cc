// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/regex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "obs/stages.h"

namespace webrbd {
namespace {

Regex MustCompile(std::string_view pattern, bool case_insensitive = false) {
  RegexOptions options;
  options.case_insensitive = case_insensitive;
  auto regex = Regex::Compile(pattern, options);
  EXPECT_TRUE(regex.ok()) << regex.status().ToString();
  return std::move(regex).value();
}

std::optional<RegexMatch> FindIn(std::string_view pattern,
                                 std::string_view text) {
  return MustCompile(pattern).Find(text);
}

TEST(RegexTest, LiteralMatching) {
  EXPECT_TRUE(MustCompile("abc").PartialMatch("xxabcxx"));
  EXPECT_FALSE(MustCompile("abc").PartialMatch("ab"));
  auto m = FindIn("abc", "xxabc");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 2u);
  EXPECT_EQ(m->end, 5u);
}

TEST(RegexTest, LeftmostMatchWins) {
  auto m = FindIn("a+", "bb aaa a");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 3u);
  EXPECT_EQ(m->end, 6u);  // greedy
}

TEST(RegexTest, Alternation) {
  Regex r = MustCompile("cat|dog|bird");
  EXPECT_TRUE(r.PartialMatch("hot dog stand"));
  EXPECT_TRUE(r.PartialMatch("bird"));
  EXPECT_TRUE(r.PartialMatch("catfish"));  // substring match
  EXPECT_FALSE(r.PartialMatch("cow"));
}

TEST(RegexTest, AlternationPrefersEarlierBranchAtSameStart) {
  // Leftmost-first: branch order decides among same-start matches.
  auto m = FindIn("ab|abc", "abc");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->end, 2u);
}

TEST(RegexTest, Quantifiers) {
  EXPECT_TRUE(MustCompile("ab*c").FullMatch("ac"));
  EXPECT_TRUE(MustCompile("ab*c").FullMatch("abbbc"));
  EXPECT_FALSE(MustCompile("ab+c").FullMatch("ac"));
  EXPECT_TRUE(MustCompile("ab+c").FullMatch("abc"));
  EXPECT_TRUE(MustCompile("ab?c").FullMatch("ac"));
  EXPECT_TRUE(MustCompile("ab?c").FullMatch("abc"));
  EXPECT_FALSE(MustCompile("ab?c").FullMatch("abbc"));
}

TEST(RegexTest, BoundedRepetition) {
  Regex r = MustCompile("a{2,4}");
  EXPECT_FALSE(r.FullMatch("a"));
  EXPECT_TRUE(r.FullMatch("aa"));
  EXPECT_TRUE(r.FullMatch("aaaa"));
  EXPECT_FALSE(r.FullMatch("aaaaa"));
  EXPECT_TRUE(MustCompile("a{3}").FullMatch("aaa"));
  EXPECT_FALSE(MustCompile("a{3}").FullMatch("aa"));
  EXPECT_TRUE(MustCompile("a{2,}").FullMatch("aaaaaa"));
  EXPECT_FALSE(MustCompile("a{2,}").FullMatch("a"));
}

TEST(RegexTest, BraceWithoutBoundIsLiteral) {
  EXPECT_TRUE(MustCompile("a{x}").FullMatch("a{x}"));
  EXPECT_TRUE(MustCompile("{").FullMatch("{"));
}

TEST(RegexTest, Grouping) {
  EXPECT_TRUE(MustCompile("(ab)+").FullMatch("ababab"));
  EXPECT_FALSE(MustCompile("(ab)+").FullMatch("aba"));
  EXPECT_TRUE(MustCompile("(?:ab|cd)+").FullMatch("abcdab"));
}

TEST(RegexTest, Classes) {
  EXPECT_TRUE(MustCompile("[abc]+").FullMatch("cab"));
  EXPECT_FALSE(MustCompile("[abc]+").FullMatch("abd"));
  EXPECT_TRUE(MustCompile("[a-z0-9]+").FullMatch("a9z"));
  EXPECT_TRUE(MustCompile("[^abc]").FullMatch("d"));
  EXPECT_FALSE(MustCompile("[^abc]").FullMatch("a"));
  EXPECT_TRUE(MustCompile("[]a]").FullMatch("]"));  // leading ] is literal
  EXPECT_TRUE(MustCompile("[a-]").FullMatch("-"));  // trailing - is literal
}

TEST(RegexTest, ClassWithEscapes) {
  EXPECT_TRUE(MustCompile("[\\d]+").FullMatch("123"));
  EXPECT_TRUE(MustCompile("[\\w.]+").FullMatch("a.b_c"));
  EXPECT_TRUE(MustCompile("[\\s]").FullMatch(" "));
}

TEST(RegexTest, PerlEscapes) {
  EXPECT_TRUE(MustCompile("\\d{3}-\\d{4}").FullMatch("555-1234"));
  EXPECT_FALSE(MustCompile("\\d{3}-\\d{4}").FullMatch("55-1234"));
  EXPECT_TRUE(MustCompile("\\w+").FullMatch("hello_world42"));
  EXPECT_TRUE(MustCompile("a\\sb").FullMatch("a b"));
  EXPECT_TRUE(MustCompile("\\D").FullMatch("x"));
  EXPECT_FALSE(MustCompile("\\D").FullMatch("5"));
  EXPECT_TRUE(MustCompile("\\S").FullMatch("x"));
  EXPECT_FALSE(MustCompile("\\W").FullMatch("x"));
}

TEST(RegexTest, EscapedMetacharacters) {
  EXPECT_TRUE(MustCompile("\\$\\d+").FullMatch("$42"));
  EXPECT_TRUE(MustCompile("a\\.b").FullMatch("a.b"));
  EXPECT_FALSE(MustCompile("a\\.b").FullMatch("axb"));
  EXPECT_TRUE(MustCompile("\\(\\)").FullMatch("()"));
}

TEST(RegexTest, Dot) {
  EXPECT_TRUE(MustCompile("a.c").FullMatch("abc"));
  EXPECT_TRUE(MustCompile("a.c").FullMatch("a c"));
  EXPECT_FALSE(MustCompile("a.c").FullMatch("a\nc"));  // . excludes newline
}

TEST(RegexTest, Anchors) {
  EXPECT_TRUE(MustCompile("^abc").PartialMatch("abcdef"));
  EXPECT_FALSE(MustCompile("^abc").PartialMatch("xabc"));
  EXPECT_TRUE(MustCompile("def$").PartialMatch("abcdef"));
  EXPECT_FALSE(MustCompile("def$").PartialMatch("defx"));
  EXPECT_TRUE(MustCompile("^$").FullMatch(""));
  EXPECT_FALSE(MustCompile("^$").PartialMatch("x"));
}

TEST(RegexTest, WordBoundaries) {
  Regex r = MustCompile("\\bmiles\\b", /*case_insensitive=*/true);
  EXPECT_TRUE(r.PartialMatch("134,000 miles, cruise"));
  EXPECT_TRUE(r.PartialMatch("miles"));
  EXPECT_TRUE(r.PartialMatch(" MILES "));
  EXPECT_FALSE(r.PartialMatch("smiles"));
  EXPECT_FALSE(r.PartialMatch("mileston"));
  EXPECT_TRUE(MustCompile("\\Bco").PartialMatch("taco"));
  EXPECT_FALSE(MustCompile("\\Bco").PartialMatch("co op"));
}

// Regression: a seed thread whose leading assertion fails at one position
// must not terminate the whole scan (found via OM heuristic returning zero
// keyword matches).
TEST(RegexTest, LeadingAssertionDoesNotStopScan) {
  Regex r = MustCompile("\\bword\\b");
  EXPECT_TRUE(r.PartialMatch("134,000 word, cruise"));
  EXPECT_TRUE(r.PartialMatch(" word "));
  EXPECT_TRUE(r.PartialMatch("000 word"));
  auto m = r.Find("!! word");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 3u);
}

TEST(RegexTest, CaseInsensitive) {
  Regex r = MustCompile("Honda", /*case_insensitive=*/true);
  EXPECT_TRUE(r.PartialMatch("HONDA Civic"));
  EXPECT_TRUE(r.PartialMatch("honda"));
  EXPECT_FALSE(MustCompile("Honda").PartialMatch("HONDA"));
}

TEST(RegexTest, CaseInsensitiveNegatedClass) {
  // [^a] must exclude both cases when folding.
  Regex r = MustCompile("[^a]", /*case_insensitive=*/true);
  EXPECT_FALSE(r.FullMatch("a"));
  EXPECT_FALSE(r.FullMatch("A"));
  EXPECT_TRUE(r.FullMatch("b"));
}

TEST(RegexTest, FindAllNonOverlapping) {
  Regex r = MustCompile("\\d+");
  auto matches = r.FindAll("a1b22c333");
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], (RegexMatch{1, 2}));
  EXPECT_EQ(matches[1], (RegexMatch{3, 5}));
  EXPECT_EQ(matches[2], (RegexMatch{6, 9}));
  EXPECT_EQ(r.CountMatches("a1b22c333"), 3u);
}

TEST(RegexTest, FindAllEmptyWidthAdvances) {
  Regex r = MustCompile("x*");
  auto matches = r.FindAll("ab");
  // Must terminate and produce a bounded number of matches.
  EXPECT_LE(matches.size(), 3u);
}

TEST(RegexTest, FindFromOffset) {
  Regex r = MustCompile("ab");
  auto m = r.Find("ab ab", 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 3u);
  EXPECT_FALSE(r.Find("ab", 1).has_value());
  EXPECT_FALSE(r.Find("ab", 99).has_value());
}

TEST(RegexTest, FullMatchNotFooledByShorterAlternative) {
  // Leftmost-first Find would prefer "a", but FullMatch must accept via
  // the longer branch.
  EXPECT_TRUE(MustCompile("a|ab").FullMatch("ab"));
  EXPECT_TRUE(MustCompile("a*").FullMatch(""));
  EXPECT_FALSE(MustCompile("a").FullMatch("ab"));
}

TEST(RegexTest, MonthDatePattern) {
  Regex r = MustCompile(
      "(January|February|March|April|May|June|July|August|September|October|"
      "November|December) [0-9]{1,2}, [0-9]{4}",
      /*case_insensitive=*/true);
  EXPECT_TRUE(r.PartialMatch("died on September 30, 1998."));
  EXPECT_EQ(r.CountMatches("May 1, 1990 and June 22, 1991"), 2u);
  EXPECT_FALSE(r.PartialMatch("Septembro 30, 1998"));
}

TEST(RegexTest, PathologicalPatternStaysLinear) {
  // (a+)+b against a^40 with no b: catastrophic for backtrackers, fine for
  // a Thompson/Pike engine. Guard with a generous wall-clock bound.
  Regex r = MustCompile("(a+)+b");
  std::string text(40, 'a');
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(r.PartialMatch(text));
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST(RegexTest, CompileErrors) {
  EXPECT_FALSE(Regex::Compile("(", {}).ok());
  EXPECT_FALSE(Regex::Compile(")", {}).ok());
  EXPECT_FALSE(Regex::Compile("a**?", {}).ok());   // non-greedy unsupported
  EXPECT_FALSE(Regex::Compile("*a", {}).ok());
  EXPECT_FALSE(Regex::Compile("[a", {}).ok());
  EXPECT_FALSE(Regex::Compile("[z-a]", {}).ok());
  EXPECT_FALSE(Regex::Compile("a\\", {}).ok());
  EXPECT_FALSE(Regex::Compile("\\q", {}).ok());    // unknown alnum escape
  EXPECT_FALSE(Regex::Compile("^*", {}).ok());     // quantified anchor
  EXPECT_FALSE(Regex::Compile("(?<name>a)", {}).ok());
}

TEST(RegexTest, PatternAccessor) {
  Regex r = MustCompile("a+b");
  EXPECT_EQ(r.pattern(), "a+b");
}

TEST(RegexTest, CopyableAndShared) {
  Regex a = MustCompile("x+");
  Regex b = a;  // shallow copy shares the program
  EXPECT_TRUE(b.PartialMatch("xx"));
  EXPECT_TRUE(a.PartialMatch("x"));
}

// --- Prefilter edge cases: start-byte sets and literal prefixes ----------

// The start-byte set as a sorted byte list, or nullopt when there is none.
std::optional<std::vector<int>> StartBytes(const Regex& regex) {
  const auto& set = regex.program().start_bytes;
  if (!set.has_value()) return std::nullopt;
  std::vector<int> bytes;
  for (int c = 0; c < 256; ++c) {
    if (set->Test(static_cast<unsigned char>(c))) bytes.push_back(c);
  }
  return bytes;
}

TEST(RegexPrefilterTest, EmptyMatchableProgramsGetNoStartSet) {
  for (const char* pattern : {"a*", "x?", "\\b", "(a|)", "^", "(ab)*c?", ""}) {
    SCOPED_TRACE(pattern);
    EXPECT_FALSE(MustCompile(pattern).program().start_bytes.has_value());
    EXPECT_TRUE(LiteralPrefixes(MustCompile(pattern).program()).empty());
  }
}

TEST(RegexPrefilterTest, StartSetLooksThroughLeadingAssertions) {
  using Bytes = std::vector<int>;
  EXPECT_EQ(StartBytes(MustCompile("\\bdied")), Bytes({'d'}));
  EXPECT_EQ(StartBytes(MustCompile("\\Bx+")), Bytes({'x'}));
  EXPECT_EQ(StartBytes(MustCompile("^ab|^c")), Bytes({'a', 'c'}));
  EXPECT_EQ(StartBytes(MustCompile("$a")), Bytes({'a'}));
  EXPECT_EQ(StartBytes(MustCompile("a*b")), Bytes({'a', 'b'}));

  // A leading \b before word bytes also skips positions inside words.
  EXPECT_TRUE(MustCompile("\\b[a-z]{2}").program().starts_at_word_start);
  EXPECT_TRUE(MustCompile("(\\bab|\\b[0-9])").program().starts_at_word_start);
  EXPECT_FALSE(MustCompile("\\bab|cab").program().starts_at_word_start);
  EXPECT_FALSE(MustCompile("\\Bab").program().starts_at_word_start);
  EXPECT_FALSE(MustCompile("\\b\\.x").program().starts_at_word_start);
  EXPECT_EQ(MustCompile("\\b[a-z]{2}").FindAll("abc de fgh").size(), 3u);
  EXPECT_EQ(MustCompile("\\bab|cab").FindAll("ab cab xcab").size(), 3u);

  // The skipped positions never change what matches.
  EXPECT_EQ(MustCompile("\\Bx+").FindAll("x ax bxx").size(), 2u);
  EXPECT_EQ(MustCompile("\\bdied").FindAll("died studied died").size(), 2u);
  EXPECT_EQ(MustCompile("^ab|^c").FindAll("c ab").size(), 1u);
  EXPECT_TRUE(MustCompile("$a").FindAll("aaa").empty());
}

TEST(RegexPrefilterTest, CaseInsensitiveStartSetsFoldLetters) {
  using Bytes = std::vector<int>;
  EXPECT_EQ(StartBytes(MustCompile("abc", true)), Bytes({'A', 'a'}));
  EXPECT_EQ(StartBytes(MustCompile("[a-c]x", true)),
            Bytes({'A', 'B', 'C', 'a', 'b', 'c'}));
  EXPECT_EQ(StartBytes(MustCompile("\\$[0-9]", true)), Bytes({'$'}));
  EXPECT_EQ(MustCompile("\\bdied\\b", true).FindAll("DIED Died died").size(),
            3u);
}

TEST(RegexPrefilterTest, HighBytesInStartSetsAndLiterals) {
  const Regex utf8 = MustCompile("\xc3\xa9t\xc3\xa9");  // "été"
  EXPECT_EQ(StartBytes(utf8), std::vector<int>({0xc3}));
  EXPECT_EQ(LiteralPrefixes(utf8.program()),
            std::vector<std::string>({"\xc3\xa9t\xc3\xa9"}));
  const std::string text = "un \xc3\xa9t\xc3\xa9 chaud, l'\xc3\xa9t\xc3\xa9";
  const std::vector<RegexMatch> matches = utf8.FindAll(text);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (RegexMatch{3, 8}));
  // A negated class reaches the high half of the byte range.
  const auto negated = StartBytes(MustCompile("[^a-z]"));
  ASSERT_TRUE(negated.has_value());
  EXPECT_EQ(negated->back(), 0xff);
  EXPECT_EQ(MustCompile("[^a-z]+").FindAll("ab\xff\x80" "cd").size(), 1u);
}

TEST(RegexPrefilterTest, LiteralPrefixSets) {
  using Literals = std::vector<std::string>;
  RegexOptions ci;
  ci.case_insensitive = true;
  auto prefixes = [&](std::string_view pattern) {
    return LiteralPrefixes(Regex::Compile(pattern, ci)->program());
  };
  EXPECT_EQ(prefixes("\\bdied\\s+on\\b"), Literals({"died"}));
  EXPECT_EQ(prefixes("\\bRoom [0-9]{3}\\b"), Literals({"room "}));
  EXPECT_EQ(prefixes("\\$[0-9][0-9,]*"), Literals({"$"}));
  // Cut at the shortest literal run any branch has: "May " stops at 4.
  EXPECT_EQ(prefixes("(January|May) [0-9]"), Literals({"janu", "may "}));
  // Cut at the maximum length.
  EXPECT_EQ(prefixes("\\bservices\\s+will\\b"), Literals({"services"}));
  // A match can begin with a non-literal class: no set.
  EXPECT_TRUE(prefixes("[0-9]{3}-[0-9]{4}").empty());
  EXPECT_TRUE(prefixes("[A-Z][a-z]+").empty());
  // Too many literals: no set.
  EXPECT_EQ(prefixes("(a|b|c|d)(e|f|g|h)(i|j)").size(), 32u);
  EXPECT_TRUE(prefixes("(a|b|c|d)(e|f|g|h)(i|j|k)").empty());
}

TEST(RegexPrefilterTest, FindAllWithEmptyMatchesAdvancesOneByte) {
  const std::vector<RegexMatch> boundaries =
      MustCompile("\\b").FindAll("ab cd");
  const std::vector<RegexMatch> expected = {{0, 0}, {2, 2}, {3, 3}, {5, 5}};
  EXPECT_EQ(boundaries, expected);
  const std::vector<RegexMatch> stars = MustCompile("x*").FindAll("axxb");
  const std::vector<RegexMatch> expected_stars = {{0, 0}, {1, 3}, {3, 3},
                                                  {4, 4}};
  EXPECT_EQ(stars, expected_stars);
  EXPECT_EQ(MustCompile("x*").CountMatches("axxb"), 4u);
}

TEST(RegexPrefilterTest, MatchAtAgreesWithFindAtEveryPosition) {
  const std::string text =
      "Died on May 1, 1998; age 80. x died  on\n$4,500 aab ab b \xc3\xa9";
  for (const char* pattern :
       {"\\bdied\\s+on\\b", "(January|May) [0-9]{1,2}", "\\$[0-9][0-9,]*",
        "a*b", "\\bage [0-9]{1,3}\\b", "x*", "\\b", "[^a-z ]+", "o|on"}) {
    SCOPED_TRACE(pattern);
    const Regex regex = MustCompile(pattern, true);
    for (size_t pos = 0; pos <= text.size(); ++pos) {
      SCOPED_TRACE(pos);
      // Find from pos is MatchAt at the first position that has a match.
      std::optional<RegexMatch> first;
      for (size_t q = pos; q <= text.size() && !first.has_value(); ++q) {
        first = VmMatchAt(regex.program(), text, q);
      }
      EXPECT_EQ(regex.Find(text, pos), first);
      const std::optional<RegexMatch> at =
          VmMatchAt(regex.program(), text, pos);
      if (at.has_value()) {
        EXPECT_EQ(at->begin, pos);
      }
    }
    EXPECT_FALSE(VmMatchAt(regex.program(), text, text.size() + 1).has_value());
  }
}

TEST(RegexPrefilterTest, FindAtStartsEqualsFindWhenStartsCoverEveryMatch) {
  const std::string text = "died on, Died  ON; studied on; died\ton x";
  const Regex regex = MustCompile("\\bdied\\s+on\\b", true);
  // Every "died" occurrence, as a literal prefilter reports them.
  const std::vector<size_t> starts = {0, 9, 22, 31};
  PikeVm vm(regex.program());
  for (size_t from = 0; from <= text.size(); ++from) {
    SCOPED_TRACE(from);
    EXPECT_EQ(vm.FindAtStarts(text, from, starts), regex.Find(text, from));
  }
}

TEST(RegexPrefilterTest, ClosureBudgetTripStillCounts) {
  RegexOptions options;
  options.closure_budget = 2;  // smaller than the alternation's closure
  auto regex = Regex::Compile("(ab|ac|ad|ae)x", options);
  ASSERT_TRUE(regex.ok());
  const uint64_t before = obs::Robust().trip_regex_closure->count();
  regex->FindAll("zz ae aex");
  EXPECT_GT(obs::Robust().trip_regex_closure->count(), before);
}

}  // namespace
}  // namespace webrbd
