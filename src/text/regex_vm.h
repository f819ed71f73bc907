// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Pike VM: executes a compiled RegexProgram over a text in O(len * insts)
// worst case, with no backtracking blow-ups regardless of pattern shape.

#ifndef WEBRBD_TEXT_REGEX_VM_H_
#define WEBRBD_TEXT_REGEX_VM_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "text/regex_program.h"

namespace webrbd {

/// A half-open [begin, end) match span within the searched text.
struct RegexMatch {
  size_t begin = 0;
  size_t end = 0;

  bool operator==(const RegexMatch& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// Reusable Pike-VM state. The two thread lists and the closure stack are
/// sized on Bind and reused by every search after it, so a scan that calls
/// Find once per match allocates once, not once per match. Not
/// thread-safe: one PikeVm per concurrent caller; the program it binds is
/// shared and immutable.
///
/// Every search seeds threads only where a match can begin: at bytes in
/// the program's start-byte set (RegexProgram::start_bytes), and, while no
/// thread is alive, jumps straight to the next such byte. Results are
/// exactly those of seeding at every byte; only dead seeds are skipped.
class PikeVm {
 public:
  PikeVm() = default;
  explicit PikeVm(const RegexProgram& program) { Bind(program); }

  /// Points the VM at `program`, growing its buffers to fit.
  void Bind(const RegexProgram& program);

  /// Leftmost match (Perl-style leftmost-first) starting at or after
  /// `start`, or nullopt.
  std::optional<RegexMatch> Find(std::string_view text, size_t start);

  /// Leftmost match that begins at one of `starts` (ascending positions;
  /// those before `from` are ignored). Threads are seeded at those
  /// positions only, so when `starts` holds every position where a match
  /// can begin (a literal-prefix prefilter's hits) the result equals
  /// Find(text, from); between starts, with no thread alive, the text is
  /// skipped. Overlapping candidates share one pass, keeping the scan
  /// linear in the text.
  std::optional<RegexMatch> FindAtStarts(std::string_view text, size_t from,
                                         std::span<const size_t> starts);

  /// The leftmost-first match beginning exactly at `pos`, or nullopt.
  std::optional<RegexMatch> MatchAt(std::string_view text, size_t pos);

  /// True iff the program matches the entire text.
  bool FullMatch(std::string_view text);

 private:
  struct Thread {
    int pc;
    size_t start;
  };

  // Storage for one position's threads, with generation-stamped marks so
  // starting a new position is O(1).
  struct ThreadList {
    std::vector<Thread> threads;
    std::vector<uint32_t> seen;
    uint32_t generation = 0;
  };

  // A ThreadList being filled for one position, as plain pointers and
  // counts the hot loops keep in registers.
  struct Cursor {
    Thread* threads;
    uint32_t* seen;
    uint32_t generation;
    size_t size;
  };

  template <typename NextSeed>
  std::optional<RegexMatch> Run(std::string_view text, size_t start,
                                NextSeed next_seed);

  // Starts a new generation of `list`: an empty cursor over it.
  static Cursor Begin(ThreadList* list);

  // Adds pc's epsilon closure to `list`; see regex_vm.cc.
  void AddThread(Cursor* list, std::string_view text, int pc, size_t pos,
                 size_t start);
  size_t WalkClosure(Cursor list, std::string_view text, int pc, size_t pos,
                     size_t start);

  const RegexProgram* program_ = nullptr;
  // Whether AddThread may copy precomputed closures. Those skip the
  // closure budget's count, so they are used only when no closure can
  // exceed the budget: the program is no larger than it.
  bool flat_closures_ = false;
  ThreadList lists_[2];
  std::vector<int> work_;  // WalkClosure's explicit stack
};

/// Finds the leftmost match (Perl-style leftmost-first semantics) starting
/// at or after `start`. Returns nullopt when nothing matches.
std::optional<RegexMatch> VmFind(const RegexProgram& program,
                                 std::string_view text, size_t start);

/// The leftmost-first match beginning exactly at `pos`, or nullopt: an
/// anchored run, as used to confirm a prefilter hit.
std::optional<RegexMatch> VmMatchAt(const RegexProgram& program,
                                    std::string_view text, size_t pos);

/// True iff the program matches the entire text.
bool VmFullMatch(const RegexProgram& program, std::string_view text);

}  // namespace webrbd

#endif  // WEBRBD_TEXT_REGEX_VM_H_
