// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/regex_compiler.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

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

std::vector<std::string> LiteralPrefixes(const RegexProgram& program) {
  // Longer prefixes barely thin the hits; more literals than this means
  // the hits are too common to be worth a prefilter.
  constexpr size_t kMaxLength = 8;
  constexpr size_t kMaxLiterals = 32;
  // Walk (prefix, instruction) pairs forward from the start state one byte
  // at a time; every pair of a level has the same prefix length. A level
  // extends only while every pair's instruction consumes a literal byte, so
  // the walk stops at the shortest literal run any path has, and every
  // prefix it returns has that one length. Closures that were not
  // precomputed are walked once and memoized.
  ClosureWalker walker(program.insts.size());
  std::vector<std::vector<int>> walked(program.insts.size());
  auto targets = [&](int pc) -> std::span<const int> {
    if (!walked[pc].empty()) return walked[pc];
    return ClosureAt(program, pc, &walker, &walked[pc]);
  };
  auto literal_at = [&program](int pc) {
    const RegexInst& inst = program.insts[pc];
    return inst.op == RegexInst::Op::kClass
               ? LiteralByte(program.class_bits[inst.class_id])
               : -1;
  };

  std::vector<std::pair<std::string, int>> level;
  for (int target : targets(0)) level.emplace_back("", target);
  for (size_t length = 0;; ++length) {
    bool stop = length == kMaxLength || level.empty();
    for (const auto& [prefix, pc] : level) stop = stop || literal_at(pc) < 0;
    if (stop) break;
    std::vector<std::pair<std::string, int>> next;
    for (const auto& [prefix, pc] : level) {
      const std::string extended = prefix + static_cast<char>(literal_at(pc));
      for (int target : targets(pc + 1)) next.emplace_back(extended, target);
    }
    // Converging branches reach one pair by several paths.
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    level = std::move(next);
    if (level.size() > kMaxLiterals * 4) return {};
  }

  std::vector<std::string> literals;
  for (auto& [prefix, pc] : level) {
    if (prefix.empty()) return {};  // a match can begin with no literal
    if (literals.empty() || literals.back() != prefix) {
      literals.push_back(std::move(prefix));
    }
  }
  if (literals.size() > kMaxLiterals) return {};
  return literals;
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
