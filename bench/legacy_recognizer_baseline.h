// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// A FROZEN copy of the per-matcher Constant/Keyword Recognizer that
// preceded the one-pass scan plan: one Pike-VM FindAll per keyword regex,
// one per value regex and one lexicon tokenization per object set, with a
// fresh VM (two heap thread lists) per match and binary-searched class
// ranges. It exists for two reasons:
//
//   1. bench_components' BM_RecognizerLegacy — the baseline of CI's
//      recognizer ratio guard, so the one-pass recognizer's speedup is
//      measured against the algorithm it replaced ON THE SAME HARDWARE, and
//   2. tests/extract/recognizer_differential_test.cc and
//      tests/fuzz/recognizer_fuzz_test.cc — the golden reference whose
//      Data-Record Tables the production recognizer must reproduce byte
//      for byte.
//
// Do not "modernize" this file; its whole value is not changing. Only the
// regex parser and Thompson compiler are shared with production (their
// instruction output is unchanged; the extra analysis fields the current
// compiler adds to RegexProgram are ignored here). The closure-budget trip
// counter of the original is dropped: a frozen baseline must not bump
// production metrics.

#ifndef WEBRBD_BENCH_LEGACY_RECOGNIZER_BASELINE_H_
#define WEBRBD_BENCH_LEGACY_RECOGNIZER_BASELINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "extract/data_record_table.h"
#include "ontology/model.h"
#include "text/regex_program.h"
#include "util/result.h"

namespace webrbd::bench {

/// The pre-scan-plan recognizer: same inputs and output type as
/// webrbd::Recognizer, the original per-matcher loop inside.
class LegacyRecognizer {
 public:
  /// Compiles every object set's keywords, value patterns and lexicon the
  /// way the original MatchingRuleSet::Compile did; fails on bad patterns.
  [[nodiscard]] static Result<LegacyRecognizer> Create(
      const Ontology& ontology);

  /// The original Recognize: matcher by matcher, then a stable sort by
  /// begin offset.
  DataRecordTable Recognize(std::string_view plain_text) const;

 private:
  struct Phrase {
    std::vector<std::string> words;  // lowercased
    std::string canonical;           // words joined by single spaces
  };

  struct Rule {
    std::string object_set;
    std::vector<std::shared_ptr<const RegexProgram>> keyword_programs;
    std::vector<std::shared_ptr<const RegexProgram>> value_programs;
    // First lowercased word -> phrases beginning with it, longest first.
    std::unordered_map<std::string, std::vector<Phrase>> lexicon;
  };

  std::vector<Rule> rules_;
};

}  // namespace webrbd::bench

#endif  // WEBRBD_BENCH_LEGACY_RECOGNIZER_BASELINE_H_
