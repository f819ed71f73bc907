// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#ifndef WEBRBD_TEXT_CHAR_CLASS_H_
#define WEBRBD_TEXT_CHAR_CLASS_H_

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace webrbd {

/// A 256-bit byte-membership bitmap: the constant-time form of a CharClass
/// the regex VM tests bytes against.
class ByteSet {
 public:
  bool Test(unsigned char c) const { return (words_[c >> 6] >> (c & 63)) & 1; }

  /// Sets every byte in the inclusive range [lo, hi], a word at a time.
  void SetRange(unsigned char lo, unsigned char hi);

  /// Adds every byte of `other`.
  void Merge(const ByteSet& other) {
    for (int i = 0; i < 4; ++i) words_[i] |= other.words_[i];
  }

  /// True iff every byte of this set is in `other`.
  bool SubsetOf(const ByteSet& other) const {
    for (int i = 0; i < 4; ++i) {
      if ((words_[i] & ~other.words_[i]) != 0) return false;
    }
    return true;
  }

  /// The bytes in both sets.
  ByteSet Intersect(const ByteSet& other) const {
    ByteSet out;
    for (int i = 0; i < 4; ++i) out.words_[i] = words_[i] & other.words_[i];
    return out;
  }

  /// The bytes of this set that are not in `other`.
  ByteSet Subtract(const ByteSet& other) const {
    ByteSet out;
    for (int i = 0; i < 4; ++i) out.words_[i] = words_[i] & ~other.words_[i];
    return out;
  }

  /// Calls `f(byte)` for each byte of the set, in ascending order.
  template <typename F>
  void ForEach(F&& f) const {
    for (int i = 0; i < 4; ++i) {
      for (uint64_t bits = words_[i]; bits != 0; bits &= bits - 1) {
        f(static_cast<unsigned char>(i * 64 + std::countr_zero(bits)));
      }
    }
  }

  /// Number of bytes in the set.
  int Count() const;

  /// The smallest byte in the set, or -1 when it is empty.
  int First() const;

 private:
  uint64_t words_[4] = {0, 0, 0, 0};
};

/// A set of byte values, represented as sorted disjoint inclusive ranges.
/// Used both by the regex engine ([a-z], \d, ...) and by literal characters
/// (a single one-byte range).
class CharClass {
 public:
  CharClass() = default;

  /// Factory: class containing exactly one byte.
  static CharClass Single(unsigned char c);

  /// Factory: class containing an inclusive byte range.
  static CharClass Range(unsigned char lo, unsigned char hi);

  /// Factories for the Perl-style escapes.
  static CharClass Digits();        ///< \d
  static CharClass WordChars();     ///< \w  ([A-Za-z0-9_])
  static CharClass Whitespace();    ///< \s
  static CharClass AnyByte();       ///< every byte value
  static CharClass AnyExceptNewline();  ///< `.`

  /// Adds an inclusive range (need not be disjoint from existing ranges).
  void Add(unsigned char lo, unsigned char hi);

  /// Adds every byte of another class.
  void AddClass(const CharClass& other);

  /// Replaces the set with its complement over all 256 byte values.
  void Negate();

  /// For every ASCII letter in the set, adds the other-case letter.
  void FoldAsciiCase();

  /// Membership test.
  bool Matches(unsigned char c) const;

  /// The same set as a bitmap, built from the ranges.
  ByteSet ToByteSet() const;

  /// True iff the set is empty.
  bool empty() const { return ranges_.empty(); }

  /// Normalized (sorted, disjoint, merged) ranges.
  const std::vector<std::pair<unsigned char, unsigned char>>& ranges() const {
    return ranges_;
  }

  /// Diagnostic rendering, e.g. "[a-z0-9]".
  std::string ToString() const;

 private:
  void Normalize();

  // Kept normalized: sorted by lo, disjoint, non-adjacent merged.
  std::vector<std::pair<unsigned char, unsigned char>> ranges_;
};

}  // namespace webrbd

#endif  // WEBRBD_TEXT_CHAR_CLASS_H_
