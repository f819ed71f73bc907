// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The "Constant/Keyword Recognizer" of Figure 1: applies an ontology's
// compiled matching rules to plain text and produces the Data-Record Table.

#ifndef WEBRBD_EXTRACT_RECOGNIZER_H_
#define WEBRBD_EXTRACT_RECOGNIZER_H_

#include <memory>
#include <string_view>

#include "extract/data_record_table.h"
#include "ontology/matching_rules.h"
#include "ontology/model.h"
#include "util/result.h"

namespace webrbd {

/// Applies every object set's keyword and value matchers to a text, in one
/// shared pass per the rule set's ScanPlan.
class Recognizer {
 public:
  /// Compiles the ontology's matching rules; fails on bad patterns.
  [[nodiscard]] static Result<Recognizer> Create(const Ontology& ontology);

  /// Scans `plain_text` and returns the position-ordered table of matches.
  /// Overlapping matches from different object sets are all reported (the
  /// Database-Instance Generator resolves conflicts downstream); within one
  /// matcher, matches never overlap. Entries with equal begin offsets are
  /// ordered by object set, then keyword before value pattern before
  /// lexicon, then matcher slot. Thread-safe on a const Recognizer: all
  /// scratch belongs to the call.
  DataRecordTable Recognize(std::string_view plain_text) const;

  const MatchingRuleSet& rules() const { return rules_; }

 private:
  explicit Recognizer(MatchingRuleSet rules)
      : rules_(std::move(rules)), plan_(ScanPlan::Build(rules_)) {}

  MatchingRuleSet rules_;
  ScanPlan plan_;  // points into rules_' shared regex programs
};

}  // namespace webrbd

#endif  // WEBRBD_EXTRACT_RECOGNIZER_H_
