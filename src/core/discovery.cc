// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "core/discovery.h"

#include <algorithm>

#include "core/ht_heuristic.h"
#include "core/rp_heuristic.h"
#include "core/sd_heuristic.h"
#include "obs/stages.h"

namespace webrbd {

namespace {

const char* LetterToName(char letter) {
  switch (letter) {
    case 'O': return "OM";
    case 'R': return "RP";
    case 'S': return "SD";
    case 'I': return "IT";
    case 'H': return "HT";
    default: return nullptr;
  }
}

}  // namespace

Result<std::vector<std::string>> RecordBoundaryDiscoverer::ParseHeuristicLetters(
    const std::string& letters) {
  if (letters.empty()) {
    return Status::InvalidArgument("heuristic set must not be empty");
  }
  std::vector<std::string> names;
  for (char letter : letters) {
    const char* name = LetterToName(letter);
    if (name == nullptr) {
      return Status::InvalidArgument(
          std::string("unknown heuristic letter '") + letter +
          "'; expected a subset of O, R, S, I, H");
    }
    for (const std::string& existing : names) {
      if (existing == name) {
        return Status::InvalidArgument(
            std::string("duplicate heuristic letter '") + letter + "'");
      }
    }
    names.emplace_back(name);
  }
  return names;
}

std::vector<std::string> RecordBoundaryDiscoverer::AllCombinations() {
  // The paper enumerates C(5,2)+C(5,3)+C(5,4)+C(5,5) = 26 combinations over
  // the ordered alphabet O, R, S, I, H.
  const std::string alphabet = "ORSIH";
  std::vector<std::string> combos;
  for (unsigned mask = 1; mask < (1u << alphabet.size()); ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    std::string combo;
    for (size_t i = 0; i < alphabet.size(); ++i) {
      if (mask & (1u << i)) combo += alphabet[i];
    }
    combos.push_back(combo);
  }
  // Order by size then alphabet position, matching Table 5's presentation.
  std::stable_sort(combos.begin(), combos.end(),
                   [](const std::string& a, const std::string& b) {
                     return a.size() < b.size();
                   });
  return combos;
}

RecordBoundaryDiscoverer::RecordBoundaryDiscoverer(
    StandaloneDiscoveryOptions options)
    : options_(std::move(options)) {
  auto names = ParseHeuristicLetters(options_.heuristics);
  // An invalid heuristic string yields an empty pipeline; Discover reports
  // the error with full context.
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    if (name == "OM") {
      heuristics_.push_back(std::make_unique<OmHeuristic>(options_.estimator));
    } else if (name == "RP") {
      heuristics_.push_back(
          std::make_unique<RpHeuristic>(options_.rp_pair_floor));
    } else if (name == "SD") {
      heuristics_.push_back(
          std::make_unique<SdHeuristic>(options_.sd_normalize));
    } else if (name == "IT") {
      heuristics_.push_back(
          std::make_unique<ItHeuristic>(options_.it_separator_list));
    } else if (name == "HT") {
      heuristics_.push_back(std::make_unique<HtHeuristic>());
    }
  }
}

Status RecordBoundaryDiscoverer::CheckHeuristics() const {
  if (!heuristics_.empty()) return Status::OK();
  auto names = ParseHeuristicLetters(options_.heuristics);
  if (!names.ok()) return names.status();
  return Status::Internal("heuristic pipeline failed to initialize");
}

Result<DiscoveryResult> RecordBoundaryDiscoverer::Discover(
    const TagTree& tree) const {
  WEBRBD_RETURN_IF_ERROR(CheckHeuristics());
  auto analysis = ExtractCandidateTags(tree, options_.candidate_options);
  if (!analysis.ok()) return analysis.status();
  return Discover(tree, std::move(analysis).value());
}

Result<DiscoveryResult> RecordBoundaryDiscoverer::Discover(
    const TagTree& tree, CandidateAnalysis analysis) const {
  WEBRBD_RETURN_IF_ERROR(CheckHeuristics());

  DiscoveryResult result;
  result.analysis = std::move(analysis);

  // Note: the paper short-circuits when exactly one candidate remains; the
  // general path below selects that single candidate identically, so we keep
  // one code path (the heuristic rankings stay available for diagnostics).
  result.heuristic_results.reserve(heuristics_.size());
  for (const auto& heuristic : heuristics_) {
    obs::ScopedTimer timer(obs::Stages().ForHeuristic(heuristic->name()));
    result.heuristic_results.push_back(
        heuristic->Rank(tree, result.analysis));
  }
  {
    obs::ScopedTimer timer(obs::Stages().combine);
    result.compound_ranking = CombineHeuristicResults(
        result.heuristic_results, options_.certainty, result.analysis);
  }
  if (result.compound_ranking.empty()) {
    return Status::Internal("compound ranking empty despite candidates");
  }
  result.separator = result.compound_ranking.front().tag;
  result.tied_best = TiedBestTags(result.compound_ranking);
  return result;
}

Result<DocumentDiscovery> DiscoverRecordBoundaries(
    std::string_view document, const StandaloneDiscoveryOptions& options) {
  auto tree = BuildTagTree(document, options.limits);
  if (!tree.ok()) return tree.status();
  RecordBoundaryDiscoverer discoverer(options);
  auto result = discoverer.Discover(*tree);
  if (!result.ok()) return result.status();
  return DocumentDiscovery{std::move(tree).value(), std::move(result).value()};
}

}  // namespace webrbd
