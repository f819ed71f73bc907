// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "util/swar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/rng.h"

namespace webrbd {
namespace {

TEST(SwarTest, CountByteMatchesStdCount) {
  // Lengths around the 8- and 16-byte strides, needles next to bytes one
  // bit away from them (where a borrowing zero test would over-count),
  // and bytes >= 0x80.
  const char kAlphabet[] = {'<', '=', ';', '\0', 'a', '\x80', '\xbc', '\xff'};
  Rng rng(20260);
  for (size_t length = 0; length < 80; ++length) {
    for (int trial = 0; trial < 20; ++trial) {
      std::string s(length, ' ');
      for (char& c : s) c = kAlphabet[rng.Below(sizeof(kAlphabet))];
      for (char needle : {'<', '\0', '\xbc'}) {
        EXPECT_EQ(swar::CountByte(s, needle),
                  static_cast<size_t>(std::count(s.begin(), s.end(), needle)))
            << "length " << length << " needle " << int{needle};
      }
    }
  }
  // Past 255 16-byte chunks the vector loop flushes its byte lanes.
  std::string long_text(9000, ' ');
  for (char& c : long_text) c = kAlphabet[rng.Below(sizeof(kAlphabet))];
  EXPECT_EQ(swar::CountByte(long_text, '<'),
            static_cast<size_t>(
                std::count(long_text.begin(), long_text.end(), '<')));
  EXPECT_EQ(swar::CountByte(std::string(9000, '<'), '<'), 9000u);
  EXPECT_EQ(swar::CountByte("", '<'), 0u);
}

}  // namespace
}  // namespace webrbd
