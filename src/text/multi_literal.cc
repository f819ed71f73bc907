// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/multi_literal.h"

namespace webrbd {

namespace {

unsigned char FoldAscii(unsigned char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c - 'A' + 'a') : c;
}

}  // namespace

MultiLiteralMatcher::MultiLiteralMatcher(const std::vector<Literal>& literals) {
  // Alphabet: one column per folded byte that occurs in some literal.
  for (const Literal& literal : literals) {
    for (char c : literal.text) {
      const unsigned char folded = FoldAscii(static_cast<unsigned char>(c));
      if (column_of_[folded] == 0) {
        column_of_[folded] = static_cast<uint8_t>(columns_++);
      }
    }
  }
  for (int c = 'A'; c <= 'Z'; ++c) column_of_[c] = column_of_[c - 'A' + 'a'];

  // Trie. While it is built, 0 in delta_ means "no edge": the root is
  // never anyone's child.
  delta_.assign(columns_, 0);
  std::vector<uint32_t> ends;  // literal -> the state it ends at; 0: empty
  ends.reserve(literals.size());
  for (const Literal& literal : literals) {
    uint32_t state = 0;
    for (char c : literal.text) {
      const size_t slot =
          state * columns_ + column_of_[static_cast<unsigned char>(c)];
      if (delta_[slot] == 0) {
        delta_[slot] = static_cast<uint32_t>(delta_.size() / columns_);
        delta_.resize(delta_.size() + columns_, 0);
      }
      state = delta_[slot];
    }
    ends.push_back(state);
  }
  // Each state's own literals, in literal order: own[own_first[s],
  // own_first[s + 1]) by a counting sort on the end states.
  const size_t states = delta_.size() / columns_;
  std::vector<uint32_t> own_first(states + 1, 0);
  for (uint32_t end : ends) {
    if (end != 0) ++own_first[end + 1];
  }
  for (size_t state = 0; state < states; ++state) {
    own_first[state + 1] += own_first[state];
  }
  std::vector<Output> own(own_first[states]);
  {
    std::vector<uint32_t> fill(own_first.begin(), own_first.end() - 1);
    for (size_t i = 0; i < literals.size(); ++i) {
      if (ends[i] == 0) continue;
      own[fill[ends[i]]++] = Output{
          literals[i].tag, static_cast<uint32_t>(literals[i].text.size())};
    }
  }

  // Breadth-first: failure links, then every missing edge is replaced by
  // the failure state's edge, giving a dense DFA. A state's outputs are its
  // own literals followed by its failure state's (the suffixes), which
  // breadth-first order has already laid out.
  std::vector<uint32_t> fail(states, 0);
  out_range_.assign(states, OutputRange{0, 0});
  std::vector<uint32_t> queue;
  for (uint32_t col = 0; col < columns_; ++col) {
    if (delta_[col] != 0) queue.push_back(delta_[col]);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t state = queue[head];
    const OutputRange suffix = out_range_[fail[state]];
    out_range_[state].begin = static_cast<uint32_t>(outputs_.size());
    outputs_.insert(outputs_.end(), own.begin() + own_first[state],
                    own.begin() + own_first[state + 1]);
    for (uint32_t k = suffix.begin; k < suffix.end; ++k) {
      const Output output = outputs_[k];
      outputs_.push_back(output);
    }
    out_range_[state].end = static_cast<uint32_t>(outputs_.size());
    for (uint32_t col = 0; col < columns_; ++col) {
      uint32_t& edge = delta_[state * columns_ + col];
      const uint32_t via_fail = delta_[fail[state] * columns_ + col];
      if (edge != 0) {
        fail[edge] = via_fail;
        queue.push_back(edge);
      } else {
        edge = via_fail;
      }
    }
  }

  // Scan form: each entry holds its target's row offset (state * columns),
  // saving a multiply per byte, plus a flag bit when the target reports.
  for (uint32_t& entry : delta_) {
    const OutputRange range = out_range_[entry];
    entry = entry * columns_ | (range.begin != range.end ? kReports : 0);
  }
}

}  // namespace webrbd
