// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The paper's Record-Boundary Discovery Algorithm (Section 5.3): tag tree →
// highest-fan-out subtree → candidate tags → five heuristics → Stanford
// certainty combination → consensus separator tag.

#ifndef WEBRBD_CORE_DISCOVERY_H_
#define WEBRBD_CORE_DISCOVERY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/candidate_tags.h"
#include "core/certainty.h"
#include "core/compound.h"
#include "core/heuristic.h"
#include "core/it_heuristic.h"
#include "core/om_heuristic.h"
#include "html/tree_builder.h"
#include "robust/limits.h"
#include "util/result.h"

namespace webrbd {

/// Configuration of the discovery pipeline.
struct DiscoveryOptions {
  /// Which heuristics participate, as the paper's letter string: O=OM,
  /// R=RP, S=SD, I=IT, H=HT. Any non-empty subset in any order, e.g. "OI",
  /// "RSIH", "ORSIH" (the paper's chosen compound heuristic).
  std::string heuristics = "ORSIH";

  /// Certainty factors per heuristic and rank (Table 4 by default).
  CertaintyFactorTable certainty = CertaintyFactorTable::PaperTable4();

  /// Candidate extraction knobs (irrelevance threshold).
  CandidateOptions candidate_options;

  /// IT's separator priority list.
  std::vector<std::string> it_separator_list = ItHeuristic::PaperSeparatorList();

  /// RP's pair-count floor as a fraction of the lowest candidate count.
  double rp_pair_floor = 0.10;

  /// When true, SD scores by coefficient of variation instead of the
  /// paper's absolute standard deviation (ablation knob; see
  /// core/sd_heuristic.h).
  bool sd_normalize = false;

  /// Per-document resource caps applied while lexing and tree building.
  /// Defaults to the production limits; tests that build pathological
  /// documents on purpose pass robust::DocumentLimits::Unlimited().
  robust::DocumentLimits limits;
};

/// DiscoveryOptions plus the OM record-count estimator — the surface of
/// the STANDALONE discovery entry points in this header only.
///
/// The estimator lives here, not in DiscoveryOptions, because the
/// integrated pipeline (extract/) derives OM's estimate from the
/// Data-Record Table itself, as the paper specifies. A caller-supplied
/// estimator would be silently overwritten there; splitting the field out
/// makes that trap unrepresentable instead of documented.
struct StandaloneDiscoveryOptions : DiscoveryOptions {
  /// Record-count estimator backing OM. When null, OM abstains (useful for
  /// ontology-free operation; the other four heuristics are structural).
  std::shared_ptr<const RecordCountEstimator> estimator;

  StandaloneDiscoveryOptions() = default;
  // Implicit on purpose: estimator-free call sites hand over plain
  // DiscoveryOptions (e.g. the knobs shared with a batch run) unchanged.
  StandaloneDiscoveryOptions(DiscoveryOptions base)  // NOLINT
      : DiscoveryOptions(std::move(base)) {}
};

/// Everything the pipeline computed for one document.
struct DiscoveryResult {
  /// The consensus record separator (the compound ranking's top tag).
  std::string separator;

  /// Candidate tags with compound certainty factors, best first.
  std::vector<CompoundRankedTag> compound_ranking;

  /// Per-heuristic rankings, in the order of DiscoveryOptions::heuristics.
  std::vector<HeuristicResult> heuristic_results;

  /// The Section 3 analysis (subtree pointer is owned by the TagTree passed
  /// to Discover and is valid only while that tree lives).
  CandidateAnalysis analysis;

  /// Tags tied for the best compound certainty — the X set of the paper's
  /// success measure sc(D) = Y/X. Always contains `separator`.
  std::vector<std::string> tied_best;
};

/// Runs the paper's discovery algorithm over pre-built tag trees.
class RecordBoundaryDiscoverer {
 public:
  explicit RecordBoundaryDiscoverer(StandaloneDiscoveryOptions options = {});

  /// Steps 2-6 of the algorithm on an existing tag tree.
  [[nodiscard]] Result<DiscoveryResult> Discover(const TagTree& tree) const;

  /// Steps 3-6 on a tree whose Section 3 candidate analysis the caller has
  /// already run (ExtractCandidateTags over `tree` with this discoverer's
  /// candidate_options), so it is not computed twice.
  [[nodiscard]] Result<DiscoveryResult> Discover(
      const TagTree& tree, CandidateAnalysis analysis) const;

  const StandaloneDiscoveryOptions& options() const { return options_; }

  /// Expands a heuristic letter string ("ORSIH") to names ({"OM", ...});
  /// rejects unknown or duplicate letters and empty strings.
  [[nodiscard]] static Result<std::vector<std::string>> ParseHeuristicLetters(
      const std::string& letters);

  /// All 26 non-trivial combinations of two or more heuristic letters, in
  /// the paper's Table 5 enumeration order (OR, OS, OI, OH, RS, ...).
  static std::vector<std::string> AllCombinations();

 private:
  // OK when the heuristic pipeline built; else why it did not.
  [[nodiscard]] Status CheckHeuristics() const;

  StandaloneDiscoveryOptions options_;
  std::vector<std::unique_ptr<SeparatorHeuristic>> heuristics_;
};

/// Convenience bundle for one-shot discovery from raw HTML; keeps the tag
/// tree alive alongside the result so `result.analysis.subtree` stays valid.
struct DocumentDiscovery {
  TagTree tree;
  DiscoveryResult result;
};

/// Builds the tag tree of `document` and runs discovery on it.
[[nodiscard]] Result<DocumentDiscovery> DiscoverRecordBoundaries(
    std::string_view document, const StandaloneDiscoveryOptions& options = {});

}  // namespace webrbd

#endif  // WEBRBD_CORE_DISCOVERY_H_
