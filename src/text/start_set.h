// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Reverse start-set automaton: finds, in one right-to-left pass over a
// text, every position where a match of a compiled RegexProgram can begin.
// It is RE2's reverse DFA (Cox, "Regular Expression Matching in the Wild")
// used only as a prefilter: the positions it reports are a superset of the
// true match starts, and the Pike VM (PikeVm::FindAtStarts) still decides
// every match. The recognizer uses it for matchers the literal-prefix
// automaton cannot filter, such as [A-Z][a-z]+ [A-Z]\. [A-Z][a-z]+, whose
// start bytes are every letter.

#ifndef WEBRBD_TEXT_START_SET_H_
#define WEBRBD_TEXT_START_SET_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "text/regex_program.h"

namespace webrbd {

/// The reverse of a program's epsilon-closed NFA, determinized lazily by
/// each scan into a caller-owned Scratch that keeps the states it built
/// for later scans. Immutable after Build, so one automaton is shared by
/// any number of threads without locks.
///
/// The NFA's states are the program's kClass instructions plus its kMatch.
/// Reading the text backwards from position p + 1 to p, kClass instruction
/// q is live at p when text[p] is in q's class and q's successor closure
/// reaches a state live at p + 1; kMatch is live everywhere, since a match
/// may end at any position. A match can begin at p when the start closure
/// holds a live state. Every assertion is taken as satisfiable, which only
/// adds positions.
class StartSetAutomaton {
 public:
  /// Programs with more instructions than this get no automaton: the
  /// state sets would outgrow a few cache lines.
  static constexpr size_t kMaxInstructions = 256;

  /// DFA states one Scratch may hold. A scan that needs more starts over
  /// from an empty DFA once; if that overflows too, it gives up and the
  /// caller falls back to the start-byte VM.
  static constexpr size_t kMaxStates = 128;

  /// Derives the reverse NFA's tables from `program`'s precomputed
  /// closures. nullopt when the program has more than kMaxInstructions
  /// instructions or can match the empty string (every position would be
  /// a start).
  static std::optional<StartSetAutomaton> Build(const RegexProgram& program);

  /// The DFA states and transitions built so far. A Scratch belongs to
  /// one automaton (or to automata built from equal programs): its states
  /// are kept across scans, so a warm Scratch rarely builds one. Not for
  /// two threads at once.
  struct Scratch {
    std::vector<uint64_t> sets;        // state -> its NFA state set
    std::vector<uint64_t> preds;       // state -> union of its sets' preds
    std::vector<uint32_t> delta;       // state row + column -> entry
    std::vector<uint32_t> hash_slots;  // open addressing over sets

    size_t states = 0;                 // DFA states built

    /// Forgets every state, keeping the buffers: the next scan starts from
    /// an empty DFA.
    void Reset() { states = 0; }
  };

  /// Appends to *starts, in ascending order, every position of `text`
  /// where a match can begin (a superset of the true starts; for a program
  /// that begins at word starts, positions right after a word byte are
  /// left out). Returns false, with *starts as it was, when the scan would
  /// report more than `max_starts` positions or build more than
  /// kMaxStates DFA states from an empty Scratch. This is ScanBack over
  /// the whole text, reversed.
  bool Scan(std::string_view text, size_t max_starts, Scratch* scratch,
            std::vector<size_t>* starts) const;

  /// The same scan over a window: reads text backwards from `end` (at
  /// most text.size()) and appends, in descending order, the positions
  /// where a match that ends at or before `end` can begin. It stops once it
  /// has read position `stop` and no partial match is in progress, so it
  /// reports the start of every match that ends at or before `end` and
  /// covers position `stop`. Reads at most *budget bytes and subtracts the
  /// bytes it read from *budget. Returns false, with *starts as it was,
  /// when the budget runs out, *starts would grow past `max_size` entries,
  /// or an empty Scratch would need more than kMaxStates states.
  bool ScanBack(std::string_view text, size_t end, size_t stop,
                size_t max_size, size_t* budget, Scratch* scratch,
                std::vector<size_t>* starts) const;

 private:
  StartSetAutomaton() = default;

  enum class Outcome { kDone, kTooMany, kOverflow };

  // Reads text backwards from `end` down to `floor`, appending flagged
  // positions, until it has read `stop` with no partial match in progress;
  // *reached is the last position read. kTooMany when *starts reaches
  // `max_size` or the scan reaches `floor` above position 0 first.
  Outcome Run(std::string_view text, size_t end, size_t stop, size_t floor,
              size_t max_size, Scratch* s, std::vector<size_t>* starts,
              size_t* reached) const;
  // Scratch starts at the one state {kMatch}, row 0, when empty.
  void Prepare(Scratch* s) const;

  // Adds (or finds) the DFA state reached from the state at `row` on
  // byte class `column`; returns its delta entry, or kUnknown past the
  // state cap.
  uint32_t AddTransition(uint32_t row, uint32_t column, Scratch* s) const;
  // Interns the state set at s->sets' tail (dropping the tail when the set
  // is already a state); returns its delta entry, or kUnknown past the
  // state cap.
  uint32_t Intern(Scratch* s) const;

  static constexpr uint32_t kUnknown = UINT32_MAX;
  static constexpr uint32_t kStarts = uint32_t{1} << 31;  // entry flag

  size_t words_ = 0;         // bitset width in 64-bit words
  uint32_t columns_ = 0;     // byte classes
  int match_pc_ = 0;         // the kMatch instruction
  bool word_start_ = false;  // RegexProgram::starts_at_word_start
  uint8_t column_of_[256] = {};
  std::vector<uint64_t> accept_;  // column -> kClass insts taking it
  std::vector<uint64_t> pred_;    // inst t -> kClass q with t in closure(q+1)
  std::vector<uint64_t> start_;   // the start closure's kClass insts
};

}  // namespace webrbd

#endif  // WEBRBD_TEXT_START_SET_H_
