// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/start_set.h"

#include <algorithm>

#include "util/string_util.h"

namespace webrbd {

namespace {

// Open-addressing slots for interning state sets: twice the state cap, a
// power of two. Slots hold state index + 1; 0 is empty.
constexpr size_t kHashSlots = 2 * StartSetAutomaton::kMaxStates;

size_t HashSet(const uint64_t* set, size_t words) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t w = 0; w < words; ++w) {
    h = (h ^ set[w]) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return static_cast<size_t>(h);
}

bool Intersects(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

}  // namespace

std::optional<StartSetAutomaton> StartSetAutomaton::Build(
    const RegexProgram& program) {
  const size_t size = program.insts.size();
  if (size > kMaxInstructions || !program.start_bytes.has_value()) {
    return std::nullopt;
  }
  StartSetAutomaton a;
  a.words_ = (size + 63) / 64;
  a.word_start_ = program.starts_at_word_start;
  auto set_bit = [&a](std::vector<uint64_t>* bits, size_t row, size_t pc) {
    (*bits)[row * a.words_ + pc / 64] |= uint64_t{1} << (pc % 64);
  };

  // Byte classes: bytes no kClass instruction tells apart share a column.
  // Each distinct class splits every column into its members and the rest;
  // columns are then numbered in the order of their smallest byte.
  std::vector<ByteSet> parts(1);
  parts[0].SetRange(0, 255);
  std::vector<bool> used(program.class_bits.size(), false);
  for (size_t pc = 0; pc < size; ++pc) {
    const RegexInst& inst = program.insts[pc];
    if (inst.op == RegexInst::Op::kMatch) a.match_pc_ = static_cast<int>(pc);
    if (inst.op != RegexInst::Op::kClass || used[inst.class_id]) continue;
    used[inst.class_id] = true;
    const ByteSet& members = program.class_bits[inst.class_id];
    for (size_t p = 0, n = parts.size(); p < n; ++p) {
      const ByteSet in = parts[p].Intersect(members);
      const ByteSet out = parts[p].Subtract(members);
      if (in.First() >= 0 && out.First() >= 0) {
        parts[p] = in;
        parts.push_back(out);
      }
    }
  }
  uint8_t part_of[256];
  for (size_t p = 0; p < parts.size(); ++p) {
    parts[p].ForEach(
        [&](unsigned char b) { part_of[b] = static_cast<uint8_t>(p); });
  }
  std::vector<int> column_of_part(parts.size(), -1);
  uint32_t columns = 0;
  for (int b = 0; b < 256; ++b) {
    int& column = column_of_part[part_of[b]];
    if (column < 0) column = static_cast<int>(columns++);
    a.column_of_[b] = static_cast<uint8_t>(column);
  }
  a.columns_ = columns;

  // accept_: per column, the kClass instructions whose class holds its
  // bytes (any one byte of a column stands for all of them).
  a.accept_.assign(columns * a.words_, 0);
  std::vector<int> representative(columns, -1);
  for (int b = 0; b < 256; ++b) {
    int& first = representative[a.column_of_[b]];
    if (first < 0) first = b;
  }
  std::vector<int> scratch;
  a.pred_.assign(size * a.words_, 0);
  for (size_t pc = 0; pc < size; ++pc) {
    const RegexInst& inst = program.insts[pc];
    if (inst.op != RegexInst::Op::kClass) continue;
    const ByteSet& bits = program.class_bits[inst.class_id];
    for (uint32_t column = 0; column < columns; ++column) {
      if (bits.Test(static_cast<unsigned char>(representative[column]))) {
        set_bit(&a.accept_, column, pc);
      }
    }
    // pred_[t] gains q for every t in q's successor closure.
    for (int target :
         ClosureTargets(program, static_cast<int>(pc) + 1, &scratch)) {
      set_bit(&a.pred_, static_cast<size_t>(target), pc);
    }
  }

  a.start_.assign(a.words_, 0);
  for (int target : ClosureTargets(program, 0, &scratch)) {
    if (program.insts[target].op == RegexInst::Op::kMatch) return std::nullopt;
    set_bit(&a.start_, 0, static_cast<size_t>(target));
  }
  return a;
}

void StartSetAutomaton::Prepare(Scratch* s) const {
  if (s->states != 0) return;
  s->sets.assign(words_, 0);
  s->sets[match_pc_ / 64] |= uint64_t{1} << (match_pc_ % 64);
  s->preds.clear();
  s->delta.clear();
  s->hash_slots.assign(kHashSlots, 0);
  Intern(s);  // {kMatch}, row 0: never a start (no empty match)
}

uint32_t StartSetAutomaton::Intern(Scratch* s) const {
  const size_t state = s->states;
  const uint64_t* set = s->sets.data() + state * words_;
  const uint32_t flag = Intersects(set, start_.data(), words_) ? kStarts : 0;
  size_t slot = HashSet(set, words_) & (kHashSlots - 1);
  for (; s->hash_slots[slot] != 0; slot = (slot + 1) & (kHashSlots - 1)) {
    const size_t other = s->hash_slots[slot] - 1;
    if (std::equal(set, set + words_, s->sets.data() + other * words_)) {
      s->sets.resize(state * words_);
      return static_cast<uint32_t>(other * columns_) | flag;
    }
  }
  if (state == kMaxStates) {
    s->sets.resize(state * words_);
    return kUnknown;
  }
  s->hash_slots[slot] = static_cast<uint32_t>(state + 1);
  ++s->states;
  // The union of the set's predecessors, so each transition out of the
  // state is one AND with a column's accepting instructions.
  const size_t base = s->preds.size();
  s->preds.resize(base + words_, 0);
  for (size_t w = 0; w < words_; ++w) {
    for (uint64_t bits = s->sets[state * words_ + w]; bits != 0;
         bits &= bits - 1) {
      const size_t pc = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      for (size_t v = 0; v < words_; ++v) {
        s->preds[base + v] |= pred_[pc * words_ + v];
      }
    }
  }
  s->delta.resize(s->delta.size() + columns_, kUnknown);
  return static_cast<uint32_t>(state * columns_) | flag;
}

uint32_t StartSetAutomaton::AddTransition(uint32_t row, uint32_t column,
                                          Scratch* s) const {
  const size_t state = row / columns_;
  for (size_t w = 0; w < words_; ++w) {
    s->sets.push_back(s->preds[state * words_ + w] &
                      accept_[column * words_ + w]);
  }
  // kMatch is live at every position: a match may end anywhere.
  s->sets[s->sets.size() - words_ + match_pc_ / 64] |= uint64_t{1}
                                                       << (match_pc_ % 64);
  const uint32_t entry = Intern(s);
  if (entry != kUnknown) s->delta[row + column] = entry;
  return entry;
}

StartSetAutomaton::Outcome StartSetAutomaton::Run(
    std::string_view text, size_t end, size_t stop, size_t floor,
    size_t max_size, Scratch* s, std::vector<size_t>* starts,
    size_t* reached) const {
  Prepare(s);
  const uint32_t* delta = s->delta.data();
  uint32_t row = 0;  // {kMatch}
  size_t& pos = *reached;
  pos = end;
  while (pos > floor) {
    --pos;
    const uint32_t column = column_of_[static_cast<unsigned char>(text[pos])];
    uint32_t entry = delta[row + column];
    if (entry == kUnknown) {
      entry = AddTransition(row, column, s);
      if (entry == kUnknown) return Outcome::kOverflow;
      delta = s->delta.data();
    }
    row = entry & ~kStarts;
    if ((entry & kStarts) != 0 &&
        !(word_start_ && pos > 0 &&
          (IsAsciiAlnum(text[pos - 1]) || text[pos - 1] == '_'))) {
      if (starts->size() == max_size) return Outcome::kTooMany;
      starts->push_back(pos);
    }
    if (row == 0 && pos <= stop) return Outcome::kDone;
  }
  return pos == 0 ? Outcome::kDone : Outcome::kTooMany;
}

bool StartSetAutomaton::Scan(std::string_view text, size_t max_starts,
                             Scratch* scratch,
                             std::vector<size_t>* starts) const {
  const size_t first = starts->size();
  const size_t max_size =
      max_starts > SIZE_MAX - first ? SIZE_MAX : first + max_starts;
  size_t budget = SIZE_MAX;  // a cold retry rereads the text
  if (!ScanBack(text, text.size(), 0, max_size, &budget, scratch, starts)) {
    return false;
  }
  std::reverse(starts->begin() + static_cast<std::ptrdiff_t>(first),
               starts->end());
  return true;
}

bool StartSetAutomaton::ScanBack(std::string_view text, size_t end,
                                 size_t stop, size_t max_size, size_t* budget,
                                 Scratch* scratch,
                                 std::vector<size_t>* starts) const {
  const size_t first = starts->size();
  // A warm DFA that overflows the cap may hold states this text never
  // needs: start over from an empty one, once.
  for (bool cold = scratch->states <= 1;; cold = true) {
    const size_t floor = end > *budget ? end - *budget : 0;
    size_t reached;
    const Outcome outcome =
        Run(text, end, stop, floor, max_size, scratch, starts, &reached);
    *budget -= end - reached;
    if (outcome == Outcome::kDone) return true;
    starts->resize(first);
    if (outcome == Outcome::kTooMany || cold) return false;
    scratch->Reset();
  }
}

}  // namespace webrbd
