// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/recognizer.h"

#include <algorithm>
#include <span>
#include <tuple>

#include "obs/stages.h"
#include "text/regex_vm.h"

namespace webrbd {

namespace {

// One recognized span before it becomes a DataRecordEntry. `order` ranks
// the matcher kinds at one begin offset: keyword 0, value pattern 1,
// lexicon 2.
struct Hit {
  size_t begin;
  size_t end;
  uint32_t object_set;
  uint32_t order;
  uint32_t slot;

  auto Key() const { return std::tie(begin, object_set, order, slot); }
};

}  // namespace

Result<Recognizer> Recognizer::Create(const Ontology& ontology) {
  auto rules = MatchingRuleSet::Compile(ontology);
  if (!rules.ok()) return rules.status();
  return Recognizer(std::move(rules).value());
}

DataRecordTable Recognizer::Recognize(std::string_view plain_text) const {
  obs::ScopedTimer timer(obs::Stages().recognize);
  const std::vector<ScanPlan::Matcher>& matchers = plan_.matchers();
  std::vector<Hit> hits;

  // One automaton pass finds every literal-prefix occurrence: the only
  // positions where a prefiltered matcher can begin a match. A matcher
  // whose prefix is so common that its hits outnumber an eighth of the
  // text is not worth the memory; it falls back to the plain scan, which
  // finds the same matches.
  const size_t max_hits = plain_text.size() / 8 + 64;
  std::vector<std::vector<size_t>> starts(matchers.size());
  std::vector<bool> too_common(matchers.size(), false);
  plan_.literals().Scan(plain_text, [&](uint32_t matcher, size_t begin) {
    if (starts[matcher].size() < max_hits) {
      starts[matcher].push_back(begin);
    } else {
      too_common[matcher] = true;
    }
  });

  // Each distinct program scans once (leftmost-first, non-overlapping,
  // like Regex::FindAll) and its matches go to every owner. A matcher with
  // a start-set automaton seeds the VM only where its reverse pass says a
  // match can begin; past the automaton's state cap, or with more starts
  // than the hit cap, it falls back to the plain scan, which finds the
  // same matches.
  PikeVm vm;
  StartSetAutomaton::Scratch start_scratch;
  for (size_t m = 0; m < matchers.size(); ++m) {
    const ScanPlan::Matcher& matcher = matchers[m];
    bool seeded = matcher.prefiltered && !too_common[m];
    if (matcher.start_set.has_value()) {
      seeded = matcher.start_set->Scan(plain_text, max_hits, &start_scratch,
                                       &starts[m]);
    }
    vm.Bind(*matcher.program);
    std::span<const size_t> candidates = starts[m];
    size_t pos = 0;
    while (pos <= plain_text.size()) {
      std::optional<RegexMatch> match;
      if (seeded) {
        while (!candidates.empty() && candidates.front() < pos) {
          candidates = candidates.subspan(1);
        }
        match = vm.FindAtStarts(plain_text, pos, candidates);
      } else {
        match = vm.Find(plain_text, pos);
      }
      if (!match.has_value()) break;
      for (const ScanPlan::Owner& owner : matcher.owners) {
        hits.push_back(Hit{match->begin, match->end, owner.object_set,
                           owner.kind == MatchKind::kKeyword ? 0u : 1u,
                           owner.slot});
      }
      pos = match->end > match->begin ? match->end : match->begin + 1;
    }
  }

  // One tokenization, shared by every object set's lexicon.
  const LexiconSet& lexicons = plan_.lexicons();
  if (!lexicons.empty()) {
    LexiconWords words;
    words.Tokenize(plain_text);
    std::vector<uint32_t> ids;
    lexicons.Lookup(words, &ids);
    for (uint32_t set = 0; set < lexicons.size(); ++set) {
      lexicons.ForEachMatch(set, ids, [&](size_t first, size_t count) {
        hits.push_back(
            Hit{words.begin(first), words.end(first + count - 1), set, 2, 0});
      });
    }
  }

  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.Key() < b.Key(); });
  const std::vector<CompiledObjectSetRule>& rules = rules_.rules();
  std::vector<DataRecordEntry> entries;
  entries.reserve(hits.size());
  for (const Hit& hit : hits) {
    entries.push_back(DataRecordEntry{
        rules[hit.object_set].object_set,
        std::string(plain_text.substr(hit.begin, hit.end - hit.begin)),
        hit.begin, hit.end,
        hit.order == 0 ? MatchKind::kKeyword : MatchKind::kConstant,
        hit.object_set});
  }
  return DataRecordTable(std::move(entries));
}

}  // namespace webrbd
