// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "ontology/matching_rules.h"

#include <map>

#include "robust/limits.h"
#include "util/string_util.h"

namespace webrbd {

std::string KeywordPhraseToPattern(std::string_view phrase) {
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

size_t CompiledObjectSetRule::CountKeywordMatches(std::string_view text) const {
  size_t count = 0;
  for (const Regex& regex : keyword_regexes) count += regex.CountMatches(text);
  return count;
}

size_t CompiledObjectSetRule::CountValueMatches(std::string_view text) const {
  size_t count = 0;
  for (const Regex& regex : value_regexes) count += regex.CountMatches(text);
  count += value_lexicon.CountMatches(text);
  return count;
}

Result<MatchingRuleSet> MatchingRuleSet::Compile(const Ontology& ontology) {
  MatchingRuleSet set;
  RegexOptions ci;
  ci.case_insensitive = true;
  // Ontology patterns are untrusted DSL input; give their VM runs the
  // production epsilon-closure backstop.
  ci.closure_budget =
      robust::DocumentLimits::Production().max_regex_closure_depth;
  // Every pattern compiles with the same options, so equal sources mean
  // equal programs: compile each once and share it.
  std::map<std::string, Regex, std::less<>> compiled;
  auto compile = [&](const std::string& source) -> Result<Regex> {
    auto it = compiled.find(source);
    if (it != compiled.end()) return it->second;
    auto regex = Regex::Compile(source, ci);
    if (regex.ok()) compiled.emplace(source, *regex);
    return regex;
  };
  for (const ObjectSet& object_set : ontology.object_sets()) {
    CompiledObjectSetRule rule;
    rule.object_set = object_set.name;
    rule.cardinality = object_set.cardinality;
    for (const std::string& keyword : object_set.frame.keywords) {
      auto regex = compile(KeywordPhraseToPattern(keyword));
      if (!regex.ok()) {
        return Status::ParseError("object set " + object_set.name +
                                  ", keyword '" + keyword +
                                  "': " + regex.status().message());
      }
      rule.keyword_regexes.push_back(std::move(regex).value());
    }
    for (const std::string& pattern : object_set.frame.value_patterns) {
      auto regex = compile(pattern);
      if (!regex.ok()) {
        return Status::ParseError("object set " + object_set.name +
                                  ", pattern '" + pattern +
                                  "': " + regex.status().message());
      }
      rule.value_regexes.push_back(std::move(regex).value());
    }
    rule.value_lexicon = Lexicon(object_set.frame.lexicon);
    set.rules_.push_back(std::move(rule));
  }
  return set;
}

ScanPlan ScanPlan::Build(const MatchingRuleSet& rules) {
  ScanPlan plan;
  // A program shared by several slots is one matcher with several owners.
  std::map<const RegexProgram*, size_t> matcher_of;
  auto own = [&](const Regex& regex, Owner owner) {
    const RegexProgram* program = &regex.program();
    auto [it, added] = matcher_of.emplace(program, plan.matchers_.size());
    if (added) plan.matchers_.push_back(Matcher{program, {}, false, {}});
    plan.matchers_[it->second].owners.push_back(owner);
  };
  std::vector<const Lexicon*> lexicons;
  const auto& all = rules.rules();
  for (uint32_t set = 0; set < all.size(); ++set) {
    for (uint32_t slot = 0; slot < all[set].keyword_regexes.size(); ++slot) {
      own(all[set].keyword_regexes[slot],
          Owner{set, MatchKind::kKeyword, slot});
    }
    for (uint32_t slot = 0; slot < all[set].value_regexes.size(); ++slot) {
      own(all[set].value_regexes[slot],
          Owner{set, MatchKind::kConstant, slot});
    }
    lexicons.push_back(&all[set].value_lexicon);
  }

  std::vector<MultiLiteralMatcher::Literal> literals;
  for (uint32_t m = 0; m < plan.matchers_.size(); ++m) {
    for (std::string& prefix : LiteralPrefixes(*plan.matchers_[m].program)) {
      literals.push_back(MultiLiteralMatcher::Literal{std::move(prefix), m});
      plan.matchers_[m].prefiltered = true;
    }
  }
  if (!literals.empty()) plan.literals_ = MultiLiteralMatcher(literals);
  // Digit- and symbol-led matchers keep the SWAR start-byte skip: their
  // start bytes are rare in prose, so the skip beats a byte-by-byte pass.
  for (Matcher& matcher : plan.matchers_) {
    const std::optional<ByteSet>& start = matcher.program->start_bytes;
    if (matcher.prefiltered || !start.has_value()) continue;
    bool letter_led = false;
    for (int c = 'A'; c <= 'Z'; ++c) {
      letter_led = letter_led || start->Test(static_cast<unsigned char>(c)) ||
                   start->Test(static_cast<unsigned char>(c - 'A' + 'a'));
    }
    if (letter_led) {
      matcher.start_set = StartSetAutomaton::Build(*matcher.program);
    }
  }
  plan.lexicons_ = LexiconSet(lexicons);
  return plan;
}

const CompiledObjectSetRule* MatchingRuleSet::Find(
    const std::string& object_set) const {
  for (const CompiledObjectSetRule& rule : rules_) {
    if (rule.object_set == object_set) return &rule;
  }
  return nullptr;
}

}  // namespace webrbd
