// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/regex_compiler.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "util/string_util.h"

namespace webrbd {

namespace {

// Scratch for epsilon-closure walks: generation-stamped marks and the
// explicit stack (iterative, for the same reason as the VM's walk: split
// chains can be program-long).
struct ClosureWalker {
  explicit ClosureWalker(size_t program_size) : stamps(program_size, 0) {}

  // Appends to *targets the kClass / kMatch instructions reachable from
  // `pc` through jumps, splits and assertions, every assertion taken as
  // satisfiable, in the VM's order (a split's preferred branch first).
  // Gives up, returning false with *targets as it was, after visiting
  // `max_visits` instructions; sets *has_assert if one was passed.
  bool Walk(const RegexProgram& program, int pc, size_t max_visits,
            std::vector<int>* targets, bool* has_assert) {
    if (stamps.size() < program.insts.size()) {
      stamps.resize(program.insts.size(), 0);
    }
    const size_t begin = targets->size();
    ++stamp;
    stack.assign(1, pc);
    size_t visits = 0;
    while (!stack.empty()) {
      const int current = stack.back();
      stack.pop_back();
      if (stamps[current] == stamp) continue;
      stamps[current] = stamp;
      if (++visits > max_visits) {
        targets->resize(begin);
        return false;
      }
      const RegexInst& inst = program.insts[current];
      switch (inst.op) {
        case RegexInst::Op::kJmp:
          stack.push_back(inst.x);
          break;
        case RegexInst::Op::kSplit:
          stack.push_back(inst.y);
          stack.push_back(inst.x);
          break;
        case RegexInst::Op::kAssert:
          *has_assert = true;
          stack.push_back(current + 1);
          break;
        case RegexInst::Op::kClass:
        case RegexInst::Op::kMatch:
          targets->push_back(current);
          break;
      }
    }
    return true;
  }

  std::vector<uint32_t> stamps;
  uint32_t stamp = 0;
  std::vector<int> stack;
};

// The closure at `pc`: its precomputed span when there is one, else a walk
// into *scratch.
std::span<const int> ClosureAt(const RegexProgram& program, int pc,
                               ClosureWalker* walker,
                               std::vector<int>* scratch) {
  const RegexProgram::Closure closure =
      static_cast<size_t>(pc) < program.closures.size()
          ? program.closures[pc]
          : RegexProgram::Closure{};
  if (closure.begin != RegexProgram::Closure::kNone) {
    return std::span<const int>(program.closure_targets)
        .subspan(closure.begin, closure.end - closure.begin);
  }
  scratch->clear();
  bool has_assert = false;
  walker->Walk(program, pc, SIZE_MAX, scratch, &has_assert);
  return *scratch;
}

// True when every path from the start to a consuming (or accepting)
// instruction passes a \b assertion. Walks (instruction, \b passed)
// states, so each instruction is visited at most twice.
bool LeadsWithWordBoundary(const RegexProgram& program) {
  std::vector<uint8_t> seen(program.insts.size(), 0);  // bit: passed + 1
  std::vector<std::pair<int, bool>> stack = {{0, false}};
  while (!stack.empty()) {
    const auto [pc, passed] = stack.back();
    stack.pop_back();
    const uint8_t bit = passed ? 2 : 1;
    if (seen[pc] & bit) continue;
    seen[pc] |= bit;
    const RegexInst& inst = program.insts[pc];
    switch (inst.op) {
      case RegexInst::Op::kJmp:
        stack.emplace_back(inst.x, passed);
        break;
      case RegexInst::Op::kSplit:
        stack.emplace_back(inst.y, passed);
        stack.emplace_back(inst.x, passed);
        break;
      case RegexInst::Op::kAssert:
        stack.emplace_back(pc + 1,
                           passed || inst.anchor == AnchorKind::kWordBoundary);
        break;
      case RegexInst::Op::kClass:
      case RegexInst::Op::kMatch:
        if (!passed) return false;
        break;
    }
  }
  return true;
}

// Fills the bitmap class table, the precomputed closures (at 0 and after
// every kClass: where the VM adds threads) and the start-byte set.
void AnalyzeProgram(RegexProgram* program) {
  constexpr size_t kMaxClosureVisits = 32;
  program->class_bits.clear();
  program->class_bits.reserve(program->classes.size());
  for (const CharClass& cc : program->classes) {
    program->class_bits.push_back(cc.ToByteSet());
  }
  const size_t size = program->insts.size();
  program->closures.assign(size, RegexProgram::Closure{});
  program->closure_targets.clear();
  ClosureWalker walker(size);
  for (size_t pc = 0; pc < size; ++pc) {
    if (pc != 0 && program->insts[pc - 1].op != RegexInst::Op::kClass) {
      continue;
    }
    RegexProgram::Closure& closure = program->closures[pc];
    const size_t begin = program->closure_targets.size();
    if (walker.Walk(*program, static_cast<int>(pc), kMaxClosureVisits,
                    &program->closure_targets, &closure.has_assert)) {
      closure.begin = static_cast<uint32_t>(begin);
      closure.end = static_cast<uint32_t>(program->closure_targets.size());
    }
  }

  ByteSet start;
  std::vector<int> scratch;
  for (int pc : ClosureAt(*program, 0, &walker, &scratch)) {
    const RegexInst& inst = program->insts[pc];
    if (inst.op == RegexInst::Op::kMatch) return;  // can match empty
    start.Merge(program->class_bits[inst.class_id]);
  }
  program->start_bytes = start;
  // A \b before a word byte means the byte before it is not one.
  static const ByteSet kWordBytes = CharClass::WordChars().ToByteSet();
  program->starts_at_word_start =
      start.SubsetOf(kWordBytes) && LeadsWithWordBoundary(*program);
}

// The lowercase byte a class stands for when it is one byte, or one ASCII
// letter in both cases; -1 otherwise.
int LiteralByte(const ByteSet& set) {
  const int count = set.Count();
  const int first = set.First();
  if (count == 1) {
    return first >= 'A' && first <= 'Z' ? first - 'A' + 'a' : first;
  }
  // Two bytes: only an upper/lower letter pair folds to one literal (the
  // upper-case letter sorts first).
  if (count == 2 && first >= 'A' && first <= 'Z' &&
      set.Test(static_cast<unsigned char>(first - 'A' + 'a'))) {
    return first - 'A' + 'a';
  }
  return -1;
}

// Caps the compiled program size; bounded repetition over large groups can
// otherwise balloon.
constexpr size_t kMaxProgramSize = 1 << 18;

class Compiler {
 public:
  Result<RegexProgram> Compile(const RegexNode& root) {
    WEBRBD_RETURN_IF_ERROR(Emit(root));
    program_.insts.push_back(RegexInst{RegexInst::Op::kMatch, 0, 0, 0,
                                       AnchorKind::kTextBegin});
    program_.anchored_at_start = StartsAnchored(root);
    AnalyzeProgram(&program_);
    return std::move(program_);
  }

 private:
  int Here() const { return static_cast<int>(program_.insts.size()); }

  Status CheckSize() const {
    if (program_.insts.size() > kMaxProgramSize) {
      return Status::InvalidArgument("regex program too large");
    }
    return Status::OK();
  }

  Status Emit(const RegexNode& node) {
    WEBRBD_RETURN_IF_ERROR(CheckSize());
    switch (node.kind) {
      case RegexNode::Kind::kEmpty:
        return Status::OK();
      case RegexNode::Kind::kClass: {
        RegexInst inst;
        inst.op = RegexInst::Op::kClass;
        inst.class_id = InternClass(node.char_class);
        program_.insts.push_back(inst);
        return Status::OK();
      }
      case RegexNode::Kind::kAnchor: {
        RegexInst inst;
        inst.op = RegexInst::Op::kAssert;
        inst.anchor = node.anchor;
        program_.insts.push_back(inst);
        return Status::OK();
      }
      case RegexNode::Kind::kConcat: {
        for (const auto& child : node.children) {
          WEBRBD_RETURN_IF_ERROR(Emit(*child));
        }
        return Status::OK();
      }
      case RegexNode::Kind::kAlternate:
        return EmitAlternate(node);
      case RegexNode::Kind::kRepeat:
        return EmitRepeat(node);
    }
    return Status::Internal("unknown regex AST node kind");
  }

  Status EmitAlternate(const RegexNode& node) {
    // branch_1 | branch_2 | ... compiles to a chain of splits with jumps
    // past the remaining branches.
    std::vector<int> jump_slots;
    for (size_t i = 0; i < node.children.size(); ++i) {
      const bool last = i + 1 == node.children.size();
      int split_slot = -1;
      if (!last) {
        split_slot = Here();
        program_.insts.push_back(RegexInst{RegexInst::Op::kSplit, 0, 0, 0,
                                           AnchorKind::kTextBegin});
        program_.insts[split_slot].x = Here();
      }
      WEBRBD_RETURN_IF_ERROR(Emit(*node.children[i]));
      if (!last) {
        jump_slots.push_back(Here());
        program_.insts.push_back(RegexInst{RegexInst::Op::kJmp, 0, 0, 0,
                                           AnchorKind::kTextBegin});
        program_.insts[split_slot].y = Here();
      }
    }
    for (int slot : jump_slots) program_.insts[slot].x = Here();
    return Status::OK();
  }

  Status EmitRepeat(const RegexNode& node) {
    const RegexNode& child = *node.children[0];
    const int min = node.min;
    const int max = node.max;

    // Mandatory copies.
    for (int i = 0; i < min; ++i) {
      WEBRBD_RETURN_IF_ERROR(Emit(child));
    }

    if (max < 0) {
      // child*  ==>  L: split(body, out); body; jmp L
      int split_slot = Here();
      program_.insts.push_back(RegexInst{RegexInst::Op::kSplit, 0, 0, 0,
                                         AnchorKind::kTextBegin});
      program_.insts[split_slot].x = Here();
      WEBRBD_RETURN_IF_ERROR(Emit(child));
      program_.insts.push_back(RegexInst{RegexInst::Op::kJmp, split_slot, 0, 0,
                                         AnchorKind::kTextBegin});
      program_.insts[split_slot].y = Here();
      return Status::OK();
    }

    // Optional copies: each gets a split that can bail to the end.
    std::vector<int> bail_slots;
    for (int i = min; i < max; ++i) {
      int split_slot = Here();
      program_.insts.push_back(RegexInst{RegexInst::Op::kSplit, 0, 0, 0,
                                         AnchorKind::kTextBegin});
      program_.insts[split_slot].x = Here();
      bail_slots.push_back(split_slot);
      WEBRBD_RETURN_IF_ERROR(Emit(child));
    }
    for (int slot : bail_slots) program_.insts[slot].y = Here();
    return Status::OK();
  }

  int InternClass(const CharClass& cc) {
    for (size_t i = 0; i < program_.classes.size(); ++i) {
      if (program_.classes[i].ranges() == cc.ranges()) {
        return static_cast<int>(i);
      }
    }
    program_.classes.push_back(cc);
    return static_cast<int>(program_.classes.size() - 1);
  }

  // Conservatively detects patterns that can only start matching at text
  // begin (a leading ^ on every alternation branch).
  static bool StartsAnchored(const RegexNode& node) {
    switch (node.kind) {
      case RegexNode::Kind::kAnchor:
        return node.anchor == AnchorKind::kTextBegin;
      case RegexNode::Kind::kConcat:
        return !node.children.empty() && StartsAnchored(*node.children[0]);
      case RegexNode::Kind::kAlternate: {
        for (const auto& child : node.children) {
          if (!StartsAnchored(*child)) return false;
        }
        return !node.children.empty();
      }
      case RegexNode::Kind::kRepeat:
        return node.min > 0 && StartsAnchored(*node.children[0]);
      default:
        return false;
    }
  }

  RegexProgram program_;
};

}  // namespace

Result<RegexProgram> CompileRegex(const RegexNode& root) {
  Compiler compiler;
  return compiler.Compile(root);
}

namespace {

// The program as a graph over its consuming and accepting instructions:
// from the start, and after each kClass, its epsilon closure (walked once
// and memoized when not precomputed). The literal-prefix and
// required-factor analyses both walk it.
class ClassGraph {
 public:
  // Pairs of (literal read so far, next instruction), one level per byte.
  using Level = std::vector<std::pair<std::string, int>>;

  explicit ClassGraph(const RegexProgram& program)
      : program_(program),
        walker_(program.insts.size()),
        walked_(program.insts.size()) {}

  // Closure targets of `pc`: where a thread added at pc goes.
  std::span<const int> Targets(int pc) {
    if (!walked_[pc].empty()) return walked_[pc];
    return ClosureAt(program_, pc, &walker_, &walked_[pc]);
  }

  // The lowercase literal byte instruction `pc` consumes, or -1.
  int LiteralAt(int pc) const {
    const RegexInst& inst = program_.insts[pc];
    return inst.op == RegexInst::Op::kClass
               ? LiteralByte(program_.class_bits[inst.class_id])
               : -1;
  }

  // Extends every pair of `level` one byte at a time while every pair's
  // instruction consumes a literal byte, up to `max_length` bytes: so every
  // pair of the result has one literal length, that of the shortest
  // literal run any path has. Converging branches share one pair. Empty
  // when the level grows past `max_pairs`.
  Level WalkLiterals(Level level, size_t max_length, size_t max_pairs) {
    for (size_t length = 0;; ++length) {
      bool stop = length == max_length || level.empty();
      for (const auto& [literal, pc] : level) {
        stop = stop || LiteralAt(pc) < 0;
      }
      if (stop) return level;
      Level next;
      for (const auto& [literal, pc] : level) {
        const std::string extended = literal + static_cast<char>(LiteralAt(pc));
        for (int target : Targets(pc + 1)) next.emplace_back(extended, target);
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      level = std::move(next);
      if (level.size() > max_pairs) return {};
    }
  }

  // Whether each instruction dominates every kMatch: every path from the
  // start to an accepting state passes it. The iterative data-flow
  // algorithm over bitsets, pushed along the closures from every reached
  // instruction until nothing changes.
  std::vector<bool> MatchDominators() {
    const size_t size = program_.insts.size();
    const size_t words = (size + 63) / 64;
    std::vector<uint64_t> dom(size * words, ~uint64_t{0});  // unreached: all
    std::vector<bool> reached(size, false);
    auto only = [&](int pc) {
      std::fill_n(dom.begin() + static_cast<std::ptrdiff_t>(pc * words),
                  words, 0);
      dom[pc * words + pc / 64] = uint64_t{1} << (pc % 64);
    };
    for (int target : Targets(0)) {
      only(target);
      reached[target] = true;
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (int pc = 0; pc < static_cast<int>(size); ++pc) {
        if (!reached[pc] || program_.insts[pc].op != RegexInst::Op::kClass) {
          continue;
        }
        for (int target : Targets(pc + 1)) {
          if (!reached[target]) {
            reached[target] = true;
            changed = true;
          }
          for (size_t w = 0; w < words; ++w) {
            uint64_t meet = dom[pc * words + w];
            if (w == static_cast<size_t>(target) / 64) {
              meet |= uint64_t{1} << (target % 64);
            }
            const uint64_t next = dom[target * words + w] & meet;
            if (next != dom[target * words + w]) {
              dom[target * words + w] = next;
              changed = true;
            }
          }
        }
      }
    }
    std::vector<bool> dominators(size, true);
    for (int pc = 0; pc < static_cast<int>(size); ++pc) {
      if (!reached[pc] || program_.insts[pc].op != RegexInst::Op::kMatch) {
        continue;
      }
      for (size_t q = 0; q < size; ++q) {
        dominators[q] = dominators[q] &&
                        ((dom[pc * words + q / 64] >> (q % 64)) & 1) != 0;
      }
    }
    return dominators;
  }

  // The most bytes any path from `pc` consumes before it accepts, or -1
  // when a path can loop (unbounded).
  int Longest(int pc) {
    if (longest_.empty()) longest_.assign(program_.insts.size(), kUnvisited);
    int& memo = longest_[pc];
    if (memo == kOnPath) return -1;
    if (memo != kUnvisited) return memo;
    if (program_.insts[pc].op == RegexInst::Op::kMatch) return memo = 0;
    memo = kOnPath;
    int most = 0;
    for (int target : Targets(pc + 1)) {
      const int rest = Longest(target);
      if (rest < 0) return memo = -1;
      most = std::max(most, rest);
    }
    return memo = most + 1;
  }

 private:
  static constexpr int kUnvisited = -2;
  static constexpr int kOnPath = -3;

  const RegexProgram& program_;
  ClosureWalker walker_;
  std::vector<std::vector<int>> walked_;
  std::vector<int> longest_;
};

// The distinct literals of a walked level, sorted; empty when some path
// has read no literal or there are more than `max_literals`.
std::vector<std::string> DistinctLiterals(ClassGraph::Level level,
                                          size_t max_literals) {
  std::vector<std::string> literals;
  for (auto& [literal, pc] : level) {
    if (literal.empty()) return {};  // a path begins with no literal
    if (literals.empty() || literals.back() != literal) {
      literals.push_back(std::move(literal));
    }
  }
  if (literals.size() > max_literals) return {};
  return literals;
}

}  // namespace

std::vector<std::string> LiteralPrefixes(const RegexProgram& program) {
  // Longer prefixes barely thin the hits; more literals than this means
  // the hits are too common to be worth a prefilter.
  constexpr size_t kMaxLength = 8;
  constexpr size_t kMaxLiterals = 32;
  ClassGraph graph(program);
  ClassGraph::Level level;
  for (int target : graph.Targets(0)) level.emplace_back("", target);
  return DistinctLiterals(
      graph.WalkLiterals(std::move(level), kMaxLength, kMaxLiterals * 4),
      kMaxLiterals);
}

LiteralFactors RequiredFactors(const RegexProgram& program) {
  // The recognizer filters only programs this small
  // (StartSetAutomaton::kMaxInstructions).
  constexpr size_t kMaxProgram = 256;
  constexpr size_t kMaxLength = 16;
  constexpr size_t kMaxLiterals = 32;
  // A window this long per hit is still a small part of a document.
  constexpr int kMaxSuffix = 64;
  LiteralFactors best;
  if (program.insts.size() > kMaxProgram) return best;
  ClassGraph graph(program);
  const std::vector<bool> dominators = graph.MatchDominators();
  for (int pc = 0; pc < static_cast<int>(program.insts.size()); ++pc) {
    if (!dominators[pc] || graph.LiteralAt(pc) < 0) continue;
    // Walk only from the start of a run of dominating literals: a walk
    // from inside the run finds a factor the run's start already covers.
    if (pc > 0 && dominators[pc - 1] && graph.LiteralAt(pc - 1) >= 0) {
      continue;
    }
    ClassGraph::Level level = graph.WalkLiterals({{"", pc}}, kMaxLength,
                                                 kMaxLiterals * 4);
    int suffix = 0;
    for (const auto& [literal, next] : level) {
      const int rest = graph.Longest(next);
      suffix = rest < 0 ? kMaxSuffix + 1 : std::max(suffix, rest);
    }
    if (suffix > kMaxSuffix) continue;
    std::vector<std::string> literals =
        DistinctLiterals(std::move(level), kMaxLiterals);
    if (literals.empty()) continue;
    // A one-byte factor that is a letter, digit or space hits at nearly
    // every word of prose: only punctuation is rare enough.
    if (literals[0].size() == 1) {
      bool rare = true;
      for (const std::string& literal : literals) {
        const char c = literal[0];
        rare = rare && c > ' ' && c < 0x7f && !IsAsciiAlnum(c);
      }
      if (!rare) continue;
    }
    // Longer factors hit less often; then fewer of them, then a shorter
    // window.
    const auto rank = [](const std::vector<std::string>& l, size_t s) {
      return std::make_tuple(l[0].size(), SIZE_MAX - l.size(), SIZE_MAX - s);
    };
    if (best.literals.empty() ||
        rank(literals, static_cast<size_t>(suffix)) >
            rank(best.literals, best.max_suffix)) {
      best.literals = std::move(literals);
      best.max_suffix = static_cast<size_t>(suffix);
    }
  }
  return best;
}

std::span<const int> ClosureTargets(const RegexProgram& program, int pc,
                                    std::vector<int>* scratch) {
  ClosureWalker walker(0);  // sized on its first walk, if any
  return ClosureAt(program, pc, &walker, scratch);
}

std::string RegexProgram::ToString() const {
  std::string out;
  for (size_t i = 0; i < insts.size(); ++i) {
    const RegexInst& inst = insts[i];
    out += std::to_string(i);
    out += ": ";
    switch (inst.op) {
      case RegexInst::Op::kClass:
        out += "class " + classes[inst.class_id].ToString();
        break;
      case RegexInst::Op::kSplit:
        out += "split " + std::to_string(inst.x) + ", " + std::to_string(inst.y);
        break;
      case RegexInst::Op::kJmp:
        out += "jmp " + std::to_string(inst.x);
        break;
      case RegexInst::Op::kAssert:
        switch (inst.anchor) {
          case AnchorKind::kTextBegin: out += "assert ^"; break;
          case AnchorKind::kTextEnd: out += "assert $"; break;
          case AnchorKind::kWordBoundary: out += "assert \\b"; break;
          case AnchorKind::kNotWordBoundary: out += "assert \\B"; break;
        }
        break;
      case RegexInst::Op::kMatch:
        out += "match";
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace webrbd
