// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/char_class.h"

#include <algorithm>
#include <bit>

namespace webrbd {

void ByteSet::SetRange(unsigned char lo, unsigned char hi) {
  for (int word = lo >> 6; word <= hi >> 6; ++word) {
    const int first = std::max(int{lo}, word * 64) - word * 64;
    const int last = std::min(int{hi}, word * 64 + 63) - word * 64;
    const uint64_t upto_last =
        last == 63 ? ~uint64_t{0} : (uint64_t{1} << (last + 1)) - 1;
    words_[word] |= upto_last & ~((uint64_t{1} << first) - 1);
  }
}

int ByteSet::Count() const {
  int count = 0;
  for (uint64_t word : words_) count += std::popcount(word);
  return count;
}

CharClass CharClass::Single(unsigned char c) { return Range(c, c); }

CharClass CharClass::Range(unsigned char lo, unsigned char hi) {
  CharClass cc;
  cc.Add(lo, hi);
  return cc;
}

CharClass CharClass::Digits() { return Range('0', '9'); }

CharClass CharClass::WordChars() {
  CharClass cc;
  cc.Add('a', 'z');
  cc.Add('A', 'Z');
  cc.Add('0', '9');
  cc.Add('_', '_');
  return cc;
}

CharClass CharClass::Whitespace() {
  CharClass cc;
  cc.Add(' ', ' ');
  cc.Add('\t', '\t');
  cc.Add('\n', '\n');
  cc.Add('\r', '\r');
  cc.Add('\f', '\f');
  cc.Add('\v', '\v');
  return cc;
}

CharClass CharClass::AnyByte() { return Range(0, 255); }

CharClass CharClass::AnyExceptNewline() {
  CharClass cc;
  cc.Add(0, static_cast<unsigned char>('\n' - 1));
  cc.Add(static_cast<unsigned char>('\n' + 1), 255);
  return cc;
}

void CharClass::Add(unsigned char lo, unsigned char hi) {
  if (lo > hi) std::swap(lo, hi);
  ranges_.emplace_back(lo, hi);
  Normalize();
}

void CharClass::AddClass(const CharClass& other) {
  for (const auto& [lo, hi] : other.ranges_) ranges_.emplace_back(lo, hi);
  Normalize();
}

void CharClass::Negate() {
  std::vector<std::pair<unsigned char, unsigned char>> complement;
  int next = 0;
  for (const auto& [lo, hi] : ranges_) {
    if (next < lo) {
      complement.emplace_back(static_cast<unsigned char>(next),
                              static_cast<unsigned char>(lo - 1));
    }
    next = hi + 1;
  }
  if (next <= 255) {
    complement.emplace_back(static_cast<unsigned char>(next), 255);
  }
  ranges_ = std::move(complement);
}

void CharClass::FoldAsciiCase() {
  std::vector<std::pair<unsigned char, unsigned char>> extra;
  for (const auto& [lo, hi] : ranges_) {
    for (int c = lo; c <= hi; ++c) {
      if (c >= 'a' && c <= 'z') {
        unsigned char up = static_cast<unsigned char>(c - 'a' + 'A');
        extra.emplace_back(up, up);
      } else if (c >= 'A' && c <= 'Z') {
        unsigned char low = static_cast<unsigned char>(c - 'A' + 'a');
        extra.emplace_back(low, low);
      }
    }
  }
  for (const auto& r : extra) ranges_.push_back(r);
  Normalize();
}

bool CharClass::Matches(unsigned char c) const {
  // Ranges are sorted; binary search the candidate range.
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), c,
      [](unsigned char value, const auto& range) { return value < range.first; });
  if (it == ranges_.begin()) return false;
  --it;
  return c >= it->first && c <= it->second;
}

int ByteSet::First() const {
  for (int i = 0; i < 4; ++i) {
    if (words_[i] != 0) return i * 64 + std::countr_zero(words_[i]);
  }
  return -1;
}

ByteSet CharClass::ToByteSet() const {
  ByteSet set;
  for (const auto& [lo, hi] : ranges_) set.SetRange(lo, hi);
  return set;
}

void CharClass::Normalize() {
  if (ranges_.empty()) return;
  std::sort(ranges_.begin(), ranges_.end());
  std::vector<std::pair<unsigned char, unsigned char>> merged;
  merged.push_back(ranges_[0]);
  for (size_t i = 1; i < ranges_.size(); ++i) {
    auto& last = merged.back();
    const auto& cur = ranges_[i];
    if (cur.first <= last.second ||
        (last.second < 255 && cur.first == last.second + 1)) {
      last.second = std::max(last.second, cur.second);
    } else {
      merged.push_back(cur);
    }
  }
  ranges_ = std::move(merged);
}

namespace {
std::string RenderByte(unsigned char c) {
  if (c >= 0x21 && c <= 0x7e && c != '-' && c != ']' && c != '\\') {
    return std::string(1, static_cast<char>(c));
  }
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\x%02x", c);
  return buf;
}
}  // namespace

std::string CharClass::ToString() const {
  std::string out = "[";
  for (const auto& [lo, hi] : ranges_) {
    out += RenderByte(lo);
    if (hi != lo) {
      out += "-";
      out += RenderByte(hi);
    }
  }
  out += "]";
  return out;
}

}  // namespace webrbd
