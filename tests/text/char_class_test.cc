// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/char_class.h"

#include <gtest/gtest.h>

namespace webrbd {
namespace {

// Membership as a 256-bit reference set, for property checks.
std::vector<bool> Materialize(const CharClass& cc) {
  std::vector<bool> bits(256);
  for (int c = 0; c < 256; ++c) {
    bits[static_cast<size_t>(c)] = cc.Matches(static_cast<unsigned char>(c));
  }
  return bits;
}

TEST(CharClassTest, SingleAndRange) {
  CharClass s = CharClass::Single('x');
  EXPECT_TRUE(s.Matches('x'));
  EXPECT_FALSE(s.Matches('y'));

  CharClass r = CharClass::Range('a', 'f');
  EXPECT_TRUE(r.Matches('a'));
  EXPECT_TRUE(r.Matches('f'));
  EXPECT_FALSE(r.Matches('g'));
  EXPECT_FALSE(r.Matches('A'));
}

TEST(CharClassTest, ReversedRangeIsNormalized) {
  CharClass cc = CharClass::Range('f', 'a');
  EXPECT_TRUE(cc.Matches('c'));
}

TEST(CharClassTest, AddMergesOverlappingRanges) {
  CharClass cc;
  cc.Add('a', 'm');
  cc.Add('k', 'z');
  EXPECT_EQ(cc.ranges().size(), 1u);
  EXPECT_TRUE(cc.Matches('z'));
}

TEST(CharClassTest, AddMergesAdjacentRanges) {
  CharClass cc;
  cc.Add('a', 'c');
  cc.Add('d', 'f');
  EXPECT_EQ(cc.ranges().size(), 1u);
}

TEST(CharClassTest, DisjointRangesStayDisjoint) {
  CharClass cc;
  cc.Add('a', 'c');
  cc.Add('x', 'z');
  EXPECT_EQ(cc.ranges().size(), 2u);
  EXPECT_FALSE(cc.Matches('m'));
}

TEST(CharClassTest, PerlEscapes) {
  EXPECT_TRUE(CharClass::Digits().Matches('7'));
  EXPECT_FALSE(CharClass::Digits().Matches('a'));
  EXPECT_TRUE(CharClass::WordChars().Matches('_'));
  EXPECT_TRUE(CharClass::WordChars().Matches('Q'));
  EXPECT_FALSE(CharClass::WordChars().Matches('-'));
  EXPECT_TRUE(CharClass::Whitespace().Matches('\t'));
  EXPECT_FALSE(CharClass::Whitespace().Matches('x'));
}

TEST(CharClassTest, AnyByteAndAnyExceptNewline) {
  EXPECT_TRUE(CharClass::AnyByte().Matches('\n'));
  EXPECT_TRUE(CharClass::AnyByte().Matches(0));
  EXPECT_TRUE(CharClass::AnyByte().Matches(255));
  EXPECT_FALSE(CharClass::AnyExceptNewline().Matches('\n'));
  EXPECT_TRUE(CharClass::AnyExceptNewline().Matches('a'));
  EXPECT_TRUE(CharClass::AnyExceptNewline().Matches(0));
}

TEST(CharClassTest, NegateComplementsExactly) {
  CharClass cc;
  cc.Add('a', 'z');
  cc.Add('0', '9');
  std::vector<bool> before = Materialize(cc);
  cc.Negate();
  std::vector<bool> after = Materialize(cc);
  for (int c = 0; c < 256; ++c) {
    EXPECT_NE(before[static_cast<size_t>(c)], after[static_cast<size_t>(c)])
        << "byte " << c;
  }
}

TEST(CharClassTest, NegateIsInvolution) {
  CharClass cc;
  cc.Add('b', 'd');
  cc.Add(200, 210);
  std::vector<bool> original = Materialize(cc);
  cc.Negate();
  cc.Negate();
  EXPECT_EQ(Materialize(cc), original);
}

TEST(CharClassTest, NegateEmptyIsEverything) {
  CharClass cc;
  cc.Negate();
  EXPECT_TRUE(cc.Matches(0));
  EXPECT_TRUE(cc.Matches(255));
}

TEST(CharClassTest, NegateEverythingIsEmpty) {
  CharClass cc = CharClass::AnyByte();
  cc.Negate();
  EXPECT_TRUE(cc.empty());
}

TEST(CharClassTest, FoldAsciiCaseAddsCounterparts) {
  CharClass cc;
  cc.Add('a', 'c');
  cc.Add('X', 'X');
  cc.FoldAsciiCase();
  EXPECT_TRUE(cc.Matches('A'));
  EXPECT_TRUE(cc.Matches('B'));
  EXPECT_TRUE(cc.Matches('x'));
  EXPECT_FALSE(cc.Matches('d'));
  EXPECT_FALSE(cc.Matches('D'));
}

TEST(CharClassTest, FoldAsciiCaseIdempotent) {
  CharClass cc;
  cc.Add('m', 'p');
  cc.FoldAsciiCase();
  std::vector<bool> once = Materialize(cc);
  cc.FoldAsciiCase();
  EXPECT_EQ(Materialize(cc), once);
}

TEST(CharClassTest, FoldIgnoresNonLetters) {
  CharClass cc;
  cc.Add('0', '9');
  cc.FoldAsciiCase();
  EXPECT_EQ(cc.ranges().size(), 1u);
}

TEST(CharClassTest, AddClassUnions) {
  CharClass cc = CharClass::Digits();
  cc.AddClass(CharClass::Whitespace());
  EXPECT_TRUE(cc.Matches('5'));
  EXPECT_TRUE(cc.Matches(' '));
  EXPECT_FALSE(cc.Matches('a'));
}

TEST(CharClassTest, ToStringReadable) {
  CharClass cc;
  cc.Add('a', 'z');
  EXPECT_EQ(cc.ToString(), "[a-z]");
  CharClass single = CharClass::Single('q');
  EXPECT_EQ(single.ToString(), "[q]");
}

// The VM's bitmap form must hold exactly the bytes the range form does,
// including ranges that start or end on a 64-byte word edge.
TEST(CharClassTest, ByteSetAgreesWithRanges) {
  std::vector<CharClass> classes = {CharClass(),
                                    CharClass::AnyByte(),
                                    CharClass::AnyExceptNewline(),
                                    CharClass::Digits(),
                                    CharClass::WordChars(),
                                    CharClass::Whitespace(),
                                    CharClass::Range(63, 64),
                                    CharClass::Range(0, 63),
                                    CharClass::Range(64, 191),
                                    CharClass::Range(200, 255),
                                    CharClass::Single(0),
                                    CharClass::Single(255)};
  CharClass negated = CharClass::WordChars();
  negated.Negate();
  classes.push_back(negated);
  for (const CharClass& cc : classes) {
    SCOPED_TRACE(cc.ToString());
    const ByteSet set = cc.ToByteSet();
    const std::vector<bool> expected = Materialize(cc);
    int count = 0;
    int first = -1;
    for (int c = 0; c < 256; ++c) {
      EXPECT_EQ(set.Test(static_cast<unsigned char>(c)),
                expected[static_cast<size_t>(c)])
          << c;
      if (expected[static_cast<size_t>(c)]) {
        ++count;
        if (first < 0) first = c;
      }
    }
    EXPECT_EQ(set.Count(), count);
    EXPECT_EQ(set.First(), first);
  }
}

// Intersect, Subtract and ForEach agree with Test on every byte, across
// the 64-byte word edges.
TEST(CharClassTest, ByteSetSetOperationsAgreeWithTest) {
  const ByteSet digits = CharClass::Digits().ToByteSet();
  const ByteSet edges = CharClass::Range(60, 200).ToByteSet();
  const ByteSet high = CharClass::Range(128, 255).ToByteSet();
  for (const ByteSet* a : {&digits, &edges, &high}) {
    for (const ByteSet* b : {&digits, &edges, &high}) {
      const ByteSet both = a->Intersect(*b);
      const ByteSet only = a->Subtract(*b);
      for (int c = 0; c < 256; ++c) {
        const auto byte = static_cast<unsigned char>(c);
        EXPECT_EQ(both.Test(byte), a->Test(byte) && b->Test(byte)) << c;
        EXPECT_EQ(only.Test(byte), a->Test(byte) && !b->Test(byte)) << c;
      }
    }
    std::vector<int> visited;
    a->ForEach([&](unsigned char c) { visited.push_back(c); });
    std::vector<int> expected;
    for (int c = 0; c < 256; ++c) {
      if (a->Test(static_cast<unsigned char>(c))) expected.push_back(c);
    }
    EXPECT_EQ(visited, expected);
  }
}

}  // namespace
}  // namespace webrbd
