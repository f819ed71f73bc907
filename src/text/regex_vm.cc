// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/regex_vm.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/stages.h"
#include "util/swar.h"

namespace webrbd {

namespace {

constexpr size_t kNoSeed = std::numeric_limits<size_t>::max();

bool IsWordByte(std::string_view text, size_t index) {
  if (index >= text.size()) return false;
  char c = text[index];
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool IsWordByteBefore(std::string_view text, size_t pos) {
  return pos > 0 && IsWordByte(text, pos - 1);
}

bool AssertHolds(AnchorKind anchor, std::string_view text, size_t pos) {
  switch (anchor) {
    case AnchorKind::kTextBegin:
      return pos == 0;
    case AnchorKind::kTextEnd:
      return pos == text.size();
    case AnchorKind::kWordBoundary:
      return IsWordByteBefore(text, pos) != IsWordByte(text, pos);
    case AnchorKind::kNotWordBoundary:
      return IsWordByteBefore(text, pos) == IsWordByte(text, pos);
  }
  return false;
}

// Locates the next position that can begin a match: a byte of the
// start-byte set (a SWAR scan when the set is one byte or two, such as a
// case-folded letter; a bitmap test per byte otherwise) that, for a
// program that starts at word starts, does not follow a word byte.
class StartByteFinder {
 public:
  StartByteFinder(const ByteSet& set, bool word_start)
      : set_(set), word_start_(word_start) {
    count_ = set.Count();
    if (count_ > 2) return;
    char* slot = &first_;
    for (int c = 0; c < 256 && slot != nullptr; ++c) {
      if (!set.Test(static_cast<unsigned char>(c))) continue;
      *slot = static_cast<char>(c);
      slot = slot == &first_ ? &second_ : nullptr;
    }
  }

  // First position >= from that can begin a match, or kNoSeed.
  size_t Next(std::string_view text, size_t from) const {
    for (size_t pos = from; pos < text.size(); ++pos) {
      pos = NextStartByte(text, pos);
      if (pos >= text.size()) break;
      if (!word_start_ || !IsWordByteBefore(text, pos)) return pos;
    }
    return kNoSeed;
  }

 private:
  size_t NextStartByte(std::string_view text, size_t from) const {
    if (count_ == 1) return swar::FindByte(text, from, first_);
    if (count_ == 2) return swar::FindEither(text, from, first_, second_);
    size_t pos = from;
    while (pos < text.size() &&
           !set_.Test(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    return pos;
  }

  const ByteSet& set_;
  bool word_start_;
  int count_ = 0;
  char first_ = 0;
  char second_ = 0;
};

}  // namespace

void PikeVm::Bind(const RegexProgram& program) {
  program_ = &program;
  const size_t size = program.insts.size();
  flat_closures_ = program.closures.size() == size &&
                   (program.closure_budget == 0 ||
                    size <= program.closure_budget);
  for (ThreadList& list : lists_) {
    if (list.seen.size() < size) {
      list.seen.resize(size, 0);
      list.threads.resize(size);
    }
  }
}

PikeVm::Cursor PikeVm::Begin(ThreadList* list) {
  if (++list->generation == 0) {
    // Wrapped: clear the stamps so no stale mark reads as current.
    std::fill(list->seen.begin(), list->seen.end(), 0);
    list->generation = 1;
  }
  return Cursor{list->threads.data(), list->seen.data(), list->generation, 0};
}

// Adds pc to the list, resolving epsilon transitions (jmp/split/assert)
// immediately so that lists only ever hold kClass / kMatch threads.
inline void PikeVm::AddThread(Cursor* list, std::string_view text, int pc,
                              size_t pos, size_t start) {
  const RegexProgram& program = *program_;
  const RegexProgram::Closure closure =
      flat_closures_ ? program.closures[pc] : RegexProgram::Closure{};
  if (closure.begin == RegexProgram::Closure::kNone || closure.has_assert) {
    list->size = WalkClosure(*list, text, pc, pos, start);
    return;
  }
  // Fast path: the closure is position-independent and precomputed.
  // Marking only its targets adds exactly what the walk would: an inner
  // jump or split a higher-priority thread already walked had all its
  // (assertion-free) targets marked then.
  for (uint32_t k = closure.begin; k < closure.end; ++k) {
    const int target = program.closure_targets[k];
    if (list->seen[target] != list->generation) {
      list->seen[target] = list->generation;
      list->threads[list->size++] = Thread{target, start};
    }
  }
}

// Leftmost-first search from `start`, seeding threads at the positions
// next_seed(p) yields (the first seed position >= p, or kNoSeed).
template <typename NextSeed>
std::optional<RegexMatch> PikeVm::Run(std::string_view text, size_t start,
                                      NextSeed next_seed) {
  const RegexInst* insts = program_->insts.data();
  const ByteSet* class_bits = program_->class_bits.data();
  int current = 0;  // index of the list clist fills
  Cursor clist = Begin(&lists_[current]);
  std::optional<RegexMatch> best;
  size_t seed = next_seed(start);
  size_t pos = start;
  for (;;) {
    if (clist.size == 0) {
      // No thread alive: the search ends once a match is committed or no
      // seed remains; otherwise jump over the dead bytes to the next seed.
      if (best.has_value() || seed == kNoSeed) break;
      pos = seed;
      clist = Begin(&lists_[current]);  // drop marks a dead closure left
    }
    // Seeds are the lowest-priority threads of their position, so one is
    // added only while no match is committed.
    if (!best.has_value() && seed == pos) {
      AddThread(&clist, text, 0, pos, pos);
      seed = pos < text.size() ? next_seed(pos + 1) : kNoSeed;
      if (clist.size == 0) continue;  // its leading assertion failed here
    }

    Cursor nlist = Begin(&lists_[current ^ 1]);
    const unsigned char byte =
        pos < text.size() ? static_cast<unsigned char>(text[pos]) : 0;
    for (size_t i = 0; i < clist.size; ++i) {
      const Thread t = clist.threads[i];
      const RegexInst& inst = insts[t.pc];
      if (inst.op == RegexInst::Op::kMatch) {
        // Leftmost-first: this match wins over anything a lower-priority
        // thread could produce; cut the remainder of this generation.
        best = RegexMatch{t.start, pos};
        break;
      }
      // Only kClass instructions remain (epsilon ops were resolved when
      // the thread was added).
      if (pos < text.size() && class_bits[inst.class_id].Test(byte)) {
        AddThread(&nlist, text, t.pc + 1, pos + 1, t.start);
      }
    }
    clist = nlist;
    current ^= 1;
    if (pos >= text.size()) break;
    ++pos;
  }
  return best;
}

std::optional<RegexMatch> PikeVm::Find(std::string_view text, size_t start) {
  if (start > text.size()) return std::nullopt;
  const RegexProgram& program = *program_;
  if (program.anchored_at_start) {
    return Run(text, start,
               [start](size_t p) { return p == start ? p : kNoSeed; });
  }
  if (program.start_bytes.has_value()) {
    const StartByteFinder finder(*program.start_bytes,
                                 program.starts_at_word_start);
    return Run(text, start,
               [&finder, text](size_t p) { return finder.Next(text, p); });
  }
  return Run(text, start, [size = text.size()](size_t p) {
    return p <= size ? p : kNoSeed;
  });
}

std::optional<RegexMatch> PikeVm::FindAtStarts(
    std::string_view text, size_t from, std::span<const size_t> starts) {
  size_t next = 0;
  return Run(text, from, [&next, starts, size = text.size()](size_t p) {
    while (next < starts.size() && starts[next] < p) ++next;
    return next < starts.size() && starts[next] <= size ? starts[next]
                                                        : kNoSeed;
  });
}

std::optional<RegexMatch> PikeVm::MatchAt(std::string_view text, size_t pos) {
  if (pos > text.size()) return std::nullopt;
  return Run(text, pos, [pos](size_t p) { return p == pos ? p : kNoSeed; });
}

bool PikeVm::FullMatch(std::string_view text) {
  const RegexProgram& program = *program_;
  int current = 0;
  Cursor clist = Begin(&lists_[current]);
  AddThread(&clist, text, 0, 0, 0);
  for (size_t pos = 0;; ++pos) {
    if (clist.size == 0) return false;
    Cursor nlist = Begin(&lists_[current ^ 1]);
    for (size_t i = 0; i < clist.size; ++i) {
      const Thread t = clist.threads[i];
      const RegexInst& inst = program.insts[t.pc];
      if (inst.op == RegexInst::Op::kMatch) {
        if (pos == text.size()) return true;
        continue;  // a partial match is not a full match; thread dies
      }
      if (pos < text.size() &&
          program.class_bits[inst.class_id].Test(
              static_cast<unsigned char>(text[pos]))) {
        AddThread(&nlist, text, t.pc + 1, pos + 1, 0);
      }
    }
    clist = nlist;
    current ^= 1;
    if (pos >= text.size()) return false;
  }
}

// The general closure walk, for closures that hold an assertion or were
// too large to precompute; returns the list's new size.
//
// Iterative on an explicit work stack: a recursive version would descend
// once per kJmp/kSplit, so a long alternation (a split chain linear in
// pattern size) would overflow the machine stack before matching a single
// byte. Popping LIFO with a split's preferred branch pushed last reproduces
// the recursive expansion order exactly, which is what gives the VM its
// leftmost-first semantics.
size_t PikeVm::WalkClosure(Cursor list, std::string_view text, int pc,
                           size_t pos, size_t start) {
  const RegexProgram& program = *program_;
  work_.clear();
  work_.push_back(pc);
  size_t expanded = 0;
  while (!work_.empty()) {
    const int current = work_.back();
    work_.pop_back();
    if (list.seen[current] == list.generation) continue;
    list.seen[current] = list.generation;
    if (program.closure_budget != 0 && ++expanded > program.closure_budget) {
      // Budget backstop: degrade conservatively (drop the remaining
      // closure; a match may be missed) rather than keep expanding.
      obs::Robust().trip_regex_closure->Increment();
      break;
    }
    const RegexInst& inst = program.insts[current];
    switch (inst.op) {
      case RegexInst::Op::kJmp:
        work_.push_back(inst.x);
        break;
      case RegexInst::Op::kSplit:
        // x is the preferred branch: push it last so it pops (and fully
        // expands) first.
        work_.push_back(inst.y);
        work_.push_back(inst.x);
        break;
      case RegexInst::Op::kAssert:
        if (AssertHolds(inst.anchor, text, pos)) {
          work_.push_back(current + 1);
        }
        break;
      case RegexInst::Op::kClass:
      case RegexInst::Op::kMatch:
        list.threads[list.size++] = Thread{current, start};
        break;
    }
  }
  return list.size;
}

std::optional<RegexMatch> VmFind(const RegexProgram& program,
                                 std::string_view text, size_t start) {
  if (start > text.size()) return std::nullopt;
  PikeVm vm(program);
  return vm.Find(text, start);
}

std::optional<RegexMatch> VmMatchAt(const RegexProgram& program,
                                    std::string_view text, size_t pos) {
  if (pos > text.size()) return std::nullopt;
  PikeVm vm(program);
  return vm.MatchAt(text, pos);
}

bool VmFullMatch(const RegexProgram& program, std::string_view text) {
  PikeVm vm(program);
  return vm.FullMatch(text);
}

}  // namespace webrbd
