// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Compiled form of a regex: a Thompson NFA rendered as a small bytecode
// program executed by the Pike VM in regex_vm.{h,cc}.

#ifndef WEBRBD_TEXT_REGEX_PROGRAM_H_
#define WEBRBD_TEXT_REGEX_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "text/char_class.h"
#include "text/regex_ast.h"

namespace webrbd {

/// One NFA instruction.
struct RegexInst {
  enum class Op : uint8_t {
    kClass,   ///< consume one byte in classes[class_id]; fall through
    kSplit,   ///< fork to x (preferred) and y
    kJmp,     ///< jump to x
    kAssert,  ///< zero-width check of `anchor`; fall through on success
    kMatch,   ///< accept
  };

  Op op = Op::kMatch;
  int x = 0;         // kSplit / kJmp target
  int y = 0;         // kSplit alternative target
  int class_id = 0;  // kClass
  AnchorKind anchor = AnchorKind::kTextBegin;  // kAssert
};

/// A compiled program plus its character-class table.
struct RegexProgram {
  std::vector<RegexInst> insts;
  std::vector<CharClass> classes;

  /// classes[i] as a 256-bit bitmap: the VM's constant-time byte test.
  std::vector<ByteSet> class_bits;

  /// The bytes that can begin a non-empty match, looking through leading
  /// assertions; nullopt when the program can match the empty string. The
  /// VM seeds no thread at a byte outside this set and, while no thread is
  /// alive, jumps straight to the next byte in it.
  std::optional<ByteSet> start_bytes;

  /// True when every match begins with a word byte behind a \b assertion,
  /// so no match begins right after a word byte: the VM seeds only at word
  /// starts. Set only together with start_bytes.
  bool starts_at_word_start = false;

  /// A precomputed epsilon closure: closure_targets[begin, end) are the
  /// kClass / kMatch instructions it reaches with every assertion taken as
  /// satisfiable, in the VM's priority order.
  struct Closure {
    static constexpr uint32_t kNone = UINT32_MAX;
    uint32_t begin = kNone;  ///< kNone: not precomputed; walk it
    uint32_t end = 0;
    bool has_assert = false;  ///< passes an assertion on some path
  };

  /// closures[pc] for every pc a thread is added at (0, and each kClass
  /// successor) whose closure is small. The VM adds a thread whose closure
  /// holds no assertion by copying its targets instead of walking jumps
  /// and splits; the start-set and literal-prefix analyses read them all.
  std::vector<Closure> closures;
  std::vector<int> closure_targets;

  /// True when the pattern can only match starting at text begin (leading ^),
  /// which lets the VM skip the scan loop.
  bool anchored_at_start = false;

  /// Backstop on the VM's per-call epsilon-closure expansion, in
  /// instructions (0 = unbounded). Closure work is already bounded by
  /// program size via generation marking; a budget smaller than the
  /// program makes matching conservative (threads beyond the budget are
  /// dropped — matches can be missed, never miscounted as crashes). Set
  /// from RegexOptions::closure_budget at compile time.
  size_t closure_budget = 0;

  /// Human-readable disassembly for debugging and tests.
  std::string ToString() const;
};

/// A case-folded literal prefix set of `program`: distinct lowercase
/// strings of one common length, sorted, such that every match of the
/// program begins (ASCII case-insensitively) with one of them. The length
/// is that of the shortest run of literal bytes any path from the start
/// begins with, at most 8. Empty when the program has none: a match can
/// begin with a non-literal class such as [0-9] or be empty, or the set
/// would exceed 32 literals. A single-byte class counts as literal when it
/// holds one byte or one ASCII letter in both cases; assertions are looked
/// through (the VM still checks them).
std::vector<std::string> LiteralPrefixes(const RegexProgram& program);

/// Required inner literals of a program: every match contains
/// (ASCII case-insensitively) one of `literals`, all lowercase and of one
/// length, followed by at most `max_suffix` bytes before the match ends.
struct LiteralFactors {
  std::vector<std::string> literals;  ///< empty: the program has none
  size_t max_suffix = 0;
};

/// The best required factor set of `program`, for a program with no
/// literal prefix: the literal run that one consuming instruction every
/// match passes (a dominator of the accepting state) begins, extended like
/// LiteralPrefixes up to 16 bytes, when what can follow it is bounded. A
/// one-byte factor must be ASCII punctuation ("-" in [0-9]{3}-[0-9]{4}),
/// since a letter, digit or space hits at every other word. Longer factors
/// rank first, then smaller sets, then shorter suffixes. Empty for a
/// program of more than 256 instructions.
LiteralFactors RequiredFactors(const RegexProgram& program);

/// The kClass / kMatch instructions the epsilon closure of `pc` reaches,
/// every assertion taken as satisfiable, in the VM's priority order: the
/// precomputed span in program.closure_targets when there is one, else a
/// walk into *scratch (valid until scratch changes).
std::span<const int> ClosureTargets(const RegexProgram& program, int pc,
                                    std::vector<int>* scratch);

}  // namespace webrbd

#endif  // WEBRBD_TEXT_REGEX_PROGRAM_H_
