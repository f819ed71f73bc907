// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The "Constant/Keyword Matching Rules" of Figure 1: each object set's data
// frame compiled to executable matchers (regexes + lexicons).

#ifndef WEBRBD_ONTOLOGY_MATCHING_RULES_H_
#define WEBRBD_ONTOLOGY_MATCHING_RULES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ontology/model.h"
#include "text/lexicon.h"
#include "text/multi_literal.h"
#include "text/regex.h"
#include "text/start_set.h"
#include "util/result.h"

namespace webrbd {

/// What kind of evidence a match represents.
enum class MatchKind {
  kKeyword,   ///< a keyword phrase indicating the field's presence
  kConstant,  ///< an actual field value (pattern or lexicon hit)
};

/// Compiled matchers for one object set.
struct CompiledObjectSetRule {
  std::string object_set;
  Cardinality cardinality = Cardinality::kMany;

  std::vector<Regex> keyword_regexes;  ///< word-bounded, case-insensitive
  std::vector<Regex> value_regexes;    ///< case-insensitive
  Lexicon value_lexicon;

  /// Count of keyword occurrences in `text`.
  size_t CountKeywordMatches(std::string_view text) const;

  /// Count of constant-value occurrences in `text` (patterns + lexicon).
  size_t CountValueMatches(std::string_view text) const;
};

/// All compiled rules of an ontology.
class MatchingRuleSet {
 public:
  /// Compiles every data frame; fails on an invalid value pattern, naming
  /// the offending object set. A regex source that occurs more than once
  /// (the same date pattern on three object sets, say) is compiled once:
  /// the rules holding it share one program.
  [[nodiscard]] static Result<MatchingRuleSet> Compile(const Ontology& ontology);

  const std::vector<CompiledObjectSetRule>& rules() const { return rules_; }

  /// Rule for `object_set`, or nullptr.
  const CompiledObjectSetRule* Find(const std::string& object_set) const;

 private:
  std::vector<CompiledObjectSetRule> rules_;
};

/// How one Recognize call covers every matcher of a rule set in one shared
/// pass over the text instead of one pass per matcher:
///  - each distinct regex program is one Matcher, scanned once, whose
///    matches go to every (object set, kind, slot) that owns it;
///  - every matcher with a literal prefix set (LiteralPrefixes) has those
///    literals in one multi-literal automaton tagged with the matcher's
///    index, so the VM runs only where a prefix occurs;
///  - every other matcher whose start bytes hold a letter carries a
///    reverse start-set automaton (text/start_set.h), so the VM runs only
///    where a match can begin; the rest (digit- or symbol-led ones, for
///    which the SWAR start-byte skip is faster) scan with the
///    start-byte-skipping VM;
///  - every object set's lexicon matches over one shared tokenization.
class ScanPlan {
 public:
  /// One slot that receives a matcher's matches.
  struct Owner {
    uint32_t object_set;  ///< index into MatchingRuleSet::rules()
    MatchKind kind;       ///< kKeyword or kConstant
    uint32_t slot;        ///< index in keyword_regexes / value_regexes
  };

  /// One distinct regex program and its owners, in rule order.
  struct Matcher {
    const RegexProgram* program = nullptr;  ///< owned by the rule set
    std::vector<Owner> owners;
    bool prefiltered = false;  ///< has literals in literals()
    /// Set only for unprefiltered, letter-led matchers small enough.
    std::optional<StartSetAutomaton> start_set;
  };

  /// Builds the plan for `rules`, which must outlive it.
  static ScanPlan Build(const MatchingRuleSet& rules);

  const std::vector<Matcher>& matchers() const { return matchers_; }

  /// Literal prefixes of the prefiltered matchers, tagged by matcher index.
  const MultiLiteralMatcher& literals() const { return literals_; }

  /// Lexicon i is rules()[i].value_lexicon.
  const LexiconSet& lexicons() const { return lexicons_; }

 private:
  std::vector<Matcher> matchers_;
  MultiLiteralMatcher literals_;
  LexiconSet lexicons_;
};

/// Turns a keyword phrase into a word-bounded, whitespace-flexible,
/// case-insensitive regex source (e.g. "died on" ->
/// "\bdied\s+on\b"). Exposed for tests.
std::string KeywordPhraseToPattern(std::string_view phrase);

}  // namespace webrbd

#endif  // WEBRBD_ONTOLOGY_MATCHING_RULES_H_
