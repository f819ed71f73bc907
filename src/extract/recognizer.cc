// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/recognizer.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "obs/stages.h"
#include "text/regex_vm.h"

namespace webrbd {

namespace {

// One recognized span before it becomes a DataRecordEntry. `rank` orders
// the hits at one begin offset: object set, then matcher kind (keyword 0,
// value pattern 1, lexicon 2), then slot, packed so that one integer
// compare does it.
struct Hit {
  size_t begin;
  size_t end;
  uint64_t rank;

  static uint64_t Rank(uint32_t object_set, uint32_t order, uint32_t slot) {
    return uint64_t{object_set} << 32 | uint64_t{order} << 30 | slot;
  }
  uint32_t object_set() const { return static_cast<uint32_t>(rank >> 32); }
  uint32_t order() const { return static_cast<uint32_t>(rank >> 30) & 3; }
};

// What one thread keeps across Recognize calls: the Pike VM, and the
// start-set DFAs of the recognizer it ran last, one per matcher. A DFA
// depends only on its automaton, so a warm one gives the same positions as
// a cold one and only skips rebuilding states. Both are bounded by program
// size and kMaxStates. A thread that runs another recognizer drops the
// DFAs and starts them cold. The per-document buffers stay per call: held
// across documents, they fragment the thread's heap under the other
// stages' allocations and raise peak RSS by a third on the crawl
// benchmark.
struct ThreadScratch {
  // The DFAs of recognizer `id` with `matchers` matchers, warm if this
  // thread ran it last.
  std::vector<StartSetAutomaton::Scratch>& DfasFor(uint64_t id,
                                                    size_t matchers) {
    if (recognizer != id) {
      recognizer = id;
      dfas.assign(matchers, StartSetAutomaton::Scratch{});
    }
    return dfas;
  }

  uint64_t recognizer = 0;  // Recognizer id; 0: none yet
  std::vector<StartSetAutomaton::Scratch> dfas;  // by matcher index
  PikeVm vm;
};

ThreadScratch& LocalScratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

// Ids are never reused, unlike addresses: a recognizer built where a
// destroyed one lived must not inherit its DFAs.
uint64_t NextRecognizerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Recognizer::Recognizer(MatchingRuleSet rules)
    : rules_(std::move(rules)),
      plan_(ScanPlan::Build(rules_)),
      id_(NextRecognizerId()) {}

Result<Recognizer> Recognizer::Create(const Ontology& ontology) {
  auto rules = MatchingRuleSet::Compile(ontology);
  if (!rules.ok()) return rules.status();
  return Recognizer(std::move(rules).value());
}

DataRecordTable Recognizer::Recognize(std::string_view plain_text) const {
  obs::ScopedTimer timer(obs::Stages().recognize);
  const std::vector<ScanPlan::Matcher>& matchers = plan_.matchers();
  ThreadScratch& scratch = LocalScratch();
  std::vector<Hit> hits;

  // One automaton pass finds every literal-prefix and required-factor
  // occurrence: the only places near which a filtered matcher can match. A
  // matcher whose literals are so common that its hits outnumber an eighth
  // of the text is not worth the memory; it falls back to an unfiltered
  // scan, which finds the same matches. The hits land in one list, then
  // go to one array grouped by matcher (a stable counting sort), which
  // keeps each matcher's in text order.
  const size_t max_hits = plain_text.size() / 8 + 64;
  std::vector<uint32_t> counts(matchers.size() + 1, 0);
  std::vector<std::pair<uint32_t, size_t>> literal_hits;
  plan_.literals().Scan(plain_text, [&](uint32_t matcher, size_t begin) {
    if (counts[matcher + 1] <= max_hits) {
      ++counts[matcher + 1];
      literal_hits.emplace_back(matcher, begin);
    }
  });
  for (size_t m = 0; m < matchers.size(); ++m) counts[m + 1] += counts[m];
  std::vector<size_t> grouped(literal_hits.size());
  {
    std::vector<uint32_t> fill(counts.begin(), counts.end() - 1);
    for (const auto& [matcher, begin] : literal_hits) {
      grouped[fill[matcher]++] = begin;
    }
  }

  // Each distinct program scans once (leftmost-first, non-overlapping,
  // like Regex::FindAll) and its matches go to every owner. A factored
  // matcher runs its start-set automaton backwards over a window ending
  // factor_reach past each factor hit, which finds every position where a
  // match around that hit can begin; a letter-led matcher without usable
  // factors runs it over the whole text. The VM is seeded only at those
  // positions. Past the automaton's state cap, the window budget or the
  // hit cap, a matcher falls back to the plain scan, which finds the same
  // matches.
  std::vector<StartSetAutomaton::Scratch>& dfas =
      scratch.DfasFor(id_, matchers.size());
  PikeVm& vm = scratch.vm;
  std::vector<size_t> found;
  for (size_t m = 0; m < matchers.size(); ++m) {
    const ScanPlan::Matcher& matcher = matchers[m];
    std::span<const size_t> candidates(grouped.data() + counts[m],
                                       counts[m + 1] - counts[m]);
    const bool too_common = candidates.size() > max_hits;
    bool seeded = matcher.prefiltered && !too_common;
    if (matcher.factor_reach > 0 && !too_common) {
      found.clear();
      size_t budget = plain_text.size() / 2 + 256;
      seeded = true;
      for (size_t factor : candidates) {
        const size_t end =
            std::min(plain_text.size(), factor + matcher.factor_reach);
        if (!matcher.start_set->ScanBack(plain_text, end, factor, max_hits,
                                         &budget, &dfas[m], &found)) {
          seeded = false;
          break;
        }
      }
      std::sort(found.begin(), found.end());
      found.erase(std::unique(found.begin(), found.end()), found.end());
      candidates = found;
    }
    if (!seeded && matcher.letter_led) {
      found.clear();
      seeded = matcher.start_set->Scan(plain_text, max_hits, &dfas[m], &found);
      candidates = found;
    }
    vm.Bind(*matcher.program);
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
        hits.push_back(Hit{
            match->begin, match->end,
            Hit::Rank(owner.object_set,
                      owner.kind == MatchKind::kKeyword ? 0u : 1u,
                      owner.slot)});
      }
      pos = match->end > match->begin ? match->end : match->begin + 1;
    }
  }

  // One tokenization with the word lookups fused in, shared by every
  // object set's lexicon.
  const LexiconSet& lexicons = plan_.lexicons();
  if (!lexicons.empty()) {
    LexiconTokens tokens;
    lexicons.Tokenize(plain_text, &tokens);
    for (uint32_t set = 0; set < lexicons.size(); ++set) {
      lexicons.ForEachMatch(set, tokens.ids(), [&](size_t first,
                                                   size_t count) {
        hits.push_back(Hit{tokens.begin(first), tokens.end(first + count - 1),
                           Hit::Rank(set, 2, 0)});
      });
    }
  }

  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.rank < b.rank;
  });
  const std::vector<CompiledObjectSetRule>& rules = rules_.rules();
  std::vector<DataRecordEntry> entries;
  entries.reserve(hits.size());
  for (const Hit& hit : hits) {
    entries.push_back(DataRecordEntry{
        rules[hit.object_set()].object_set,
        std::string(plain_text.substr(hit.begin, hit.end - hit.begin)),
        hit.begin, hit.end,
        hit.order() == 0 ? MatchKind::kKeyword : MatchKind::kConstant,
        hit.object_set()});
  }
  return DataRecordTable(std::move(entries));
}

}  // namespace webrbd
