// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// FROZEN — see legacy_recognizer_baseline.h. Verbatim in behavior to the
// per-matcher recognizer, its Pike VM, its lexicon and its keyword-phrase
// translation as they stood before the one-pass scan plan.

#include "legacy_recognizer_baseline.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "robust/limits.h"
#include "text/regex_compiler.h"
#include "text/regex_parser.h"
#include "util/string_util.h"

namespace webrbd::bench {

namespace {

// ---- Keyword phrase -> regex source (frozen KeywordPhraseToPattern) ----

std::string LegacyKeywordPhraseToPattern(std::string_view phrase) {
  std::string pattern = "\\b";
  bool pending_gap = false;
  for (char c : phrase) {
    if (IsAsciiSpace(c)) {
      pending_gap = true;
      continue;
    }
    if (pending_gap) {
      pattern += "\\s+";
      pending_gap = false;
    }
    if (IsAsciiAlnum(c)) {
      pattern.push_back(c);
    } else {
      pattern.push_back('\\');
      pattern.push_back(c);
    }
  }
  pattern += "\\b";
  return pattern;
}

// ---- Pike VM (frozen regex_vm.cc) ----

struct LegacyMatch {
  size_t begin = 0;
  size_t end = 0;
};

// Binary search over the class's sorted, disjoint ranges.
bool ClassMatches(const CharClass& cc, unsigned char c) {
  const auto& ranges = cc.ranges();
  auto it = std::upper_bound(ranges.begin(), ranges.end(), c,
                             [](unsigned char value, const auto& range) {
                               return value < range.first;
                             });
  if (it == ranges.begin()) return false;
  --it;
  return c >= it->first && c <= it->second;
}

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

struct Thread {
  int pc;
  size_t start;
};

class ThreadList {
 public:
  explicit ThreadList(size_t program_size) : seen_(program_size, 0) {}

  void NewGeneration() {
    ++generation_;
    threads_.clear();
  }

  bool Mark(int pc) {
    if (seen_[pc] == generation_) return false;
    seen_[pc] = generation_;
    return true;
  }

  void Push(Thread t) { threads_.push_back(t); }

  const std::vector<Thread>& threads() const { return threads_; }

 private:
  std::vector<uint64_t> seen_;
  uint64_t generation_ = 0;
  std::vector<Thread> threads_;
};

class LegacyPikeVm {
 public:
  LegacyPikeVm(const RegexProgram& program, std::string_view text)
      : program_(program),
        text_(text),
        clist_(program.insts.size()),
        nlist_(program.insts.size()) {}

  std::optional<LegacyMatch> Find(size_t start) {
    std::optional<LegacyMatch> best;
    clist_.NewGeneration();
    for (size_t pos = start;; ++pos) {
      if (!best.has_value() && pos <= text_.size() &&
          (pos == start || !program_.anchored_at_start)) {
        AddThread(&clist_, 0, pos, pos);
      }
      if (clist_.threads().empty() &&
          (best.has_value() || pos >= text_.size() ||
           program_.anchored_at_start)) {
        break;
      }

      nlist_.NewGeneration();
      const auto& threads = clist_.threads();
      for (size_t i = 0; i < threads.size(); ++i) {
        const Thread& t = threads[i];
        const RegexInst& inst = program_.insts[t.pc];
        if (inst.op == RegexInst::Op::kMatch) {
          best = LegacyMatch{t.start, pos};
          break;
        }
        if (pos < text_.size() &&
            ClassMatches(program_.classes[inst.class_id],
                         static_cast<unsigned char>(text_[pos]))) {
          AddThread(&nlist_, t.pc + 1, pos + 1, t.start);
        }
      }
      std::swap(clist_, nlist_);
      if (pos >= text_.size()) break;
    }
    return best;
  }

 private:
  void AddThread(ThreadList* list, int pc, size_t pos, size_t start) {
    work_.clear();
    work_.push_back(pc);
    size_t expanded = 0;
    while (!work_.empty()) {
      int current = work_.back();
      work_.pop_back();
      if (!list->Mark(current)) continue;
      if (program_.closure_budget != 0 &&
          ++expanded > program_.closure_budget) {
        return;
      }
      const RegexInst& inst = program_.insts[current];
      switch (inst.op) {
        case RegexInst::Op::kJmp:
          work_.push_back(inst.x);
          break;
        case RegexInst::Op::kSplit:
          work_.push_back(inst.y);
          work_.push_back(inst.x);
          break;
        case RegexInst::Op::kAssert:
          if (AssertHolds(inst.anchor, text_, pos)) {
            work_.push_back(current + 1);
          }
          break;
        case RegexInst::Op::kClass:
        case RegexInst::Op::kMatch:
          list->Push(Thread{current, start});
          break;
      }
    }
  }

  const RegexProgram& program_;
  std::string_view text_;
  ThreadList clist_;
  ThreadList nlist_;
  std::vector<int> work_;
};

// The original Regex::FindAll: a fresh VM per match.
std::vector<LegacyMatch> LegacyFindAll(const RegexProgram& program,
                                       std::string_view text) {
  std::vector<LegacyMatch> matches;
  size_t pos = 0;
  while (pos <= text.size()) {
    LegacyPikeVm vm(program, text);
    std::optional<LegacyMatch> m = vm.Find(pos);
    if (!m.has_value()) break;
    matches.push_back(*m);
    pos = m->end > m->begin ? m->end : m->begin + 1;
  }
  return matches;
}

Result<std::shared_ptr<const RegexProgram>> LegacyCompile(
    std::string_view pattern, const RegexOptions& options) {
  auto ast = ParseRegex(pattern, options);
  if (!ast.ok()) return ast.status();
  auto program = CompileRegex(**ast);
  if (!program.ok()) return program.status();
  RegexProgram compiled = std::move(program).value();
  compiled.closure_budget = options.closure_budget;
  return std::make_shared<const RegexProgram>(std::move(compiled));
}

// ---- Lexicon (frozen lexicon.cc) ----

bool IsLexiconWordChar(char c) {
  return IsAsciiAlnum(c) || c == '\'' || c == '-' || c == '+' || c == '/' ||
         c == '#';
}

struct TokenSpan {
  size_t begin;
  size_t end;
  std::string lower;
};

std::vector<TokenSpan> TokenizeWords(std::string_view text) {
  std::vector<TokenSpan> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsLexiconWordChar(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && IsLexiconWordChar(text[i])) ++i;
    if (i > start) {
      tokens.push_back(
          TokenSpan{start, i, AsciiToLower(text.substr(start, i - start))});
    }
  }
  return tokens;
}

}  // namespace

Result<LegacyRecognizer> LegacyRecognizer::Create(const Ontology& ontology) {
  LegacyRecognizer recognizer;
  RegexOptions ci;
  ci.case_insensitive = true;
  ci.closure_budget =
      robust::DocumentLimits::Production().max_regex_closure_depth;
  for (const ObjectSet& object_set : ontology.object_sets()) {
    Rule rule;
    rule.object_set = object_set.name;
    for (const std::string& keyword : object_set.frame.keywords) {
      auto program = LegacyCompile(LegacyKeywordPhraseToPattern(keyword), ci);
      if (!program.ok()) {
        return Status::ParseError("object set " + object_set.name +
                                  ", keyword '" + keyword +
                                  "': " + program.status().message());
      }
      rule.keyword_programs.push_back(std::move(program).value());
    }
    for (const std::string& pattern : object_set.frame.value_patterns) {
      auto program = LegacyCompile(pattern, ci);
      if (!program.ok()) {
        return Status::ParseError("object set " + object_set.name +
                                  ", pattern '" + pattern +
                                  "': " + program.status().message());
      }
      rule.value_programs.push_back(std::move(program).value());
    }
    for (const std::string& entry : object_set.frame.lexicon) {
      std::vector<std::string> raw_words = SplitWhitespace(entry);
      if (raw_words.empty()) continue;
      Phrase phrase;
      for (const std::string& w : raw_words) {
        phrase.words.push_back(AsciiToLower(w));
      }
      phrase.canonical = Join(phrase.words, " ");
      std::vector<Phrase>& bucket = rule.lexicon[phrase.words[0]];
      bool duplicate = false;
      for (const Phrase& existing : bucket) {
        if (existing.canonical == phrase.canonical) duplicate = true;
      }
      if (duplicate) continue;
      bucket.push_back(std::move(phrase));
      std::sort(bucket.begin(), bucket.end(),
                [](const Phrase& a, const Phrase& b) {
                  return a.words.size() > b.words.size();
                });
    }
    recognizer.rules_.push_back(std::move(rule));
  }
  return recognizer;
}

DataRecordTable LegacyRecognizer::Recognize(std::string_view plain_text) const {
  std::vector<DataRecordEntry> entries;
  for (const Rule& rule : rules_) {
    for (const auto& program : rule.keyword_programs) {
      for (const LegacyMatch& match : LegacyFindAll(*program, plain_text)) {
        entries.push_back(DataRecordEntry{
            rule.object_set,
            std::string(
                plain_text.substr(match.begin, match.end - match.begin)),
            match.begin, match.end, MatchKind::kKeyword});
      }
    }
    for (const auto& program : rule.value_programs) {
      for (const LegacyMatch& match : LegacyFindAll(*program, plain_text)) {
        entries.push_back(DataRecordEntry{
            rule.object_set,
            std::string(
                plain_text.substr(match.begin, match.end - match.begin)),
            match.begin, match.end, MatchKind::kConstant});
      }
    }
    // The original lexicon scan: tokenize and lowercase the whole text again
    // for every object set, lexicon or not.
    std::vector<TokenSpan> tokens = TokenizeWords(plain_text);
    size_t i = 0;
    while (i < tokens.size()) {
      auto it = rule.lexicon.find(tokens[i].lower);
      bool matched = false;
      if (it != rule.lexicon.end()) {
        for (const Phrase& phrase : it->second) {
          if (i + phrase.words.size() > tokens.size()) continue;
          bool all = true;
          for (size_t k = 1; k < phrase.words.size(); ++k) {
            if (tokens[i + k].lower != phrase.words[k]) {
              all = false;
              break;
            }
          }
          if (all) {
            const size_t begin = tokens[i].begin;
            const size_t end = tokens[i + phrase.words.size() - 1].end;
            entries.push_back(DataRecordEntry{
                rule.object_set,
                std::string(plain_text.substr(begin, end - begin)), begin, end,
                MatchKind::kConstant});
            i += phrase.words.size();
            matched = true;
            break;
          }
        }
      }
      if (!matched) ++i;
    }
  }
  return DataRecordTable(std::move(entries));
}

}  // namespace webrbd::bench
