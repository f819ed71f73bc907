// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Multi-literal matcher: one Aho–Corasick automaton over many short
// literals, matched ASCII-case-insensitively in a single pass over a text.
// The recognizer's scan plan builds one per ontology over every matcher's
// literal prefix set, so a document is read once for all of them and the
// regex VM only runs where some prefix occurs.

#ifndef WEBRBD_TEXT_MULTI_LITERAL_H_
#define WEBRBD_TEXT_MULTI_LITERAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace webrbd {

/// An immutable Aho–Corasick automaton with dense transitions over a
/// reduced byte alphabet: bytes that occur in no literal share one column,
/// and each ASCII letter shares a column with its other case.
class MultiLiteralMatcher {
 public:
  /// One literal to find, reported with `tag`. Several literals may share
  /// a tag, and one literal may be added under several tags.
  struct Literal {
    std::string text;  ///< non-empty; compared ASCII-case-insensitively
    uint32_t tag = 0;
  };

  MultiLiteralMatcher() = default;
  explicit MultiLiteralMatcher(const std::vector<Literal>& literals);

  bool empty() const { return outputs_.empty(); }

  /// Calls `on_hit(tag, begin)` for every occurrence of every literal,
  /// overlapping ones included, ordered by end offset; `begin` is the byte
  /// offset where the occurrence starts.
  template <typename OnHit>
  void Scan(std::string_view text, OnHit&& on_hit) const {
    if (empty()) return;
    // Locals, so the hit callback's stores cannot force reloads.
    const uint32_t* delta = delta_.data();
    const uint8_t* column_of = column_of_;
    uint32_t row = 0;  // the current state's row offset
    for (size_t i = 0; i < text.size(); ++i) {
      const uint32_t entry =
          delta[row + column_of[static_cast<unsigned char>(text[i])]];
      row = entry & ~kReports;
      if ((entry & kReports) == 0) continue;
      const OutputRange range = out_range_[row / columns_];
      for (uint32_t k = range.begin; k < range.end; ++k) {
        on_hit(outputs_[k].tag, i + 1 - outputs_[k].length);
      }
    }
  }

 private:
  struct Output {
    uint32_t tag;
    uint32_t length;
  };

  struct OutputRange {
    uint32_t begin;
    uint32_t end;
  };

  // Flag bit of a delta_ entry: the target state reports outputs.
  static constexpr uint32_t kReports = uint32_t{1} << 31;

  uint8_t column_of_[256] = {};  // byte -> alphabet column (0 = none)
  uint32_t columns_ = 1;
  // state * columns_ + column -> target * columns_, | kReports if it has
  // outputs.
  std::vector<uint32_t> delta_;
  std::vector<OutputRange> out_range_;  // state -> its slice of outputs_
  std::vector<Output> outputs_;  // per state: own literals, then suffixes
};

}  // namespace webrbd

#endif  // WEBRBD_TEXT_MULTI_LITERAL_H_
