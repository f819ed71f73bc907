// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "traced_pipeline.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/boundary_artifact.h"
#include "core/compound.h"
#include "core/discovery.h"
#include "core/ht_heuristic.h"
#include "core/it_heuristic.h"
#include "core/om_heuristic.h"
#include "core/rp_heuristic.h"
#include "core/sd_heuristic.h"
#include "extract/db_instance_generator.h"
#include "html/text_index.h"
#include "html/tree_builder.h"

namespace perfbench {

using webrbd::DataRecordEntry;
using webrbd::DataRecordTable;
using webrbd::Result;
using webrbd::Status;

namespace {

// Copy of the pipeline's private O(d) record-count estimate
// (extract/extraction_context.cc): the average indication count of the
// record-identifying fields in the Data-Record Table.
std::optional<double> EstimateFromTable(const webrbd::Ontology& ontology,
                                        const DataRecordTable& table) {
  const std::vector<const webrbd::ObjectSet*> fields =
      ontology.RecordIdentifyingFields();
  if (fields.size() < 3) return std::nullopt;
  double total = 0.0;
  for (const webrbd::ObjectSet* field : fields) {
    total += static_cast<double>(
        field->frame.HasKeywords()
            ? table.CountFor(field->name, webrbd::MatchKind::kKeyword)
            : table.CountFor(field->name, webrbd::MatchKind::kConstant));
  }
  return total / static_cast<double>(fields.size());
}

Layer RankLayer(const std::string& heuristic) {
  if (heuristic == "OM") return Layer::kRankOm;
  if (heuristic == "RP") return Layer::kRankRp;
  if (heuristic == "SD") return Layer::kRankSd;
  if (heuristic == "IT") return Layer::kRankIt;
  return Layer::kRankHt;
}

// RecordBoundaryDiscoverer's constructor and Discover, step by step, so
// each heuristic's Rank gets its own span.
Result<webrbd::DiscoveryResult> TracedDiscover(
    const webrbd::StandaloneDiscoveryOptions& options,
    const webrbd::TagTree& tree, Tracer& tracer) {
  ScopedSpan discover(tracer, Layer::kDiscover);
  auto names = webrbd::RecordBoundaryDiscoverer::ParseHeuristicLetters(
      options.heuristics);
  if (!names.ok()) return names.status();
  std::vector<std::unique_ptr<webrbd::SeparatorHeuristic>> heuristics;
  for (const std::string& name : *names) {
    if (name == "OM") {
      heuristics.push_back(
          std::make_unique<webrbd::OmHeuristic>(options.estimator));
    } else if (name == "RP") {
      heuristics.push_back(
          std::make_unique<webrbd::RpHeuristic>(options.rp_pair_floor));
    } else if (name == "SD") {
      heuristics.push_back(
          std::make_unique<webrbd::SdHeuristic>(options.sd_normalize));
    } else if (name == "IT") {
      heuristics.push_back(
          std::make_unique<webrbd::ItHeuristic>(options.it_separator_list));
    } else if (name == "HT") {
      heuristics.push_back(std::make_unique<webrbd::HtHeuristic>());
    }
  }

  webrbd::DiscoveryResult result;
  {
    ScopedSpan span(tracer, Layer::kCandidates);
    auto analysis =
        webrbd::ExtractCandidateTags(tree, options.candidate_options);
    if (!analysis.ok()) return analysis.status();
    result.analysis = std::move(analysis).value();
  }
  result.heuristic_results.reserve(heuristics.size());
  for (const auto& heuristic : heuristics) {
    ScopedSpan span(tracer, RankLayer(heuristic->name()));
    result.heuristic_results.push_back(heuristic->Rank(tree, result.analysis));
  }
  result.compound_ranking = webrbd::CombineHeuristicResults(
      result.heuristic_results, options.certainty, result.analysis);
  if (result.compound_ranking.empty()) {
    return Status::Internal("compound ranking empty despite candidates");
  }
  result.separator = result.compound_ranking.front().tag;
  result.tied_best = webrbd::TiedBestTags(result.compound_ranking);
  return result;
}

}  // namespace

uint64_t MatcherCount(const webrbd::Recognizer& recognizer) {
  uint64_t matchers = 0;
  for (const webrbd::CompiledObjectSetRule& rule :
       recognizer.rules().rules()) {
    matchers += rule.keyword_regexes.size() + rule.value_regexes.size() +
                (rule.value_lexicon.empty() ? 0 : 1);
  }
  return matchers;
}

Result<std::string> TracedExtractDocument(
    const webrbd::ExtractionContext& context, webrbd::TemplateCache* cache,
    std::string_view html, webrbd::DocumentArena& arena,
    webrbd::RecordSink& sink, uint32_t document_index, Tracer& tracer,
    TraceCounters& counters) {
  ScopedSpan document(tracer, Layer::kDocument);
  ++counters.documents;
  counters.bytes += html.size();
  const webrbd::DiscoveryOptions& base = context.options().discovery;
  const webrbd::Recognizer& recognizer = context.recognizer();
  const bool has_rules = !recognizer.rules().rules().empty();

  // The pipeline's `finish`: partition at the cuts, assemble one record
  // per partition, deliver each to the sink.
  auto finish = [&](const std::string& separator, const DataRecordTable& table,
                    const std::vector<size_t>& cuts) -> Result<std::string> {
    ScopedSpan dbgen(tracer, Layer::kDbgen);
    if (cuts.empty()) {
      return Status::Internal("separator <" + separator +
                              "> has no occurrences in its own region");
    }
    std::vector<DataRecordTable> partitions = table.PartitionAt(cuts);
    partitions.erase(partitions.begin());
    while (!partitions.empty() && partitions.back().empty()) {
      partitions.pop_back();
    }
    std::shared_ptr<const webrbd::DatabaseInstanceGenerator> generator =
        context.instance_generator();
    if (generator == nullptr) {
      auto compiled = webrbd::DatabaseInstanceGenerator::Create(
          context.ontology());
      if (!compiled.ok()) return compiled.status();
      generator = std::make_shared<const webrbd::DatabaseInstanceGenerator>(
          std::move(compiled).value());
    }
    webrbd::PopulatedRecord record;
    record.document_index = document_index;
    record.entity = generator->scheme().entity_table.table_name();
    for (size_t i = 0; i < partitions.size(); ++i) {
      record.record_index = static_cast<uint32_t>(i);
      record.fields = generator->FieldsFromTable(partitions[i]);
      Status written = sink.Write(record);
      if (!written.ok()) return written;
    }
    counters.records += partitions.size();
    return separator;
  };

  Result<webrbd::BalancedDocument> balanced = Status::Internal("unreached");
  {
    ScopedSpan span(tracer, Layer::kLexBalance);
    balanced = webrbd::LexAndBalance(html, base.limits, arena);
  }
  if (!balanced.ok()) return balanced.status();
  counters.tokens += balanced->tokens.size();

  uint64_t fingerprint = 0;
  std::shared_ptr<const webrbd::BoundaryArtifact> memoized;
  std::shared_ptr<const webrbd::BoundaryArtifact> captured;
  if (cache != nullptr) {
    {
      ScopedSpan span(tracer, Layer::kFingerprint);
      fingerprint =
          webrbd::PageFingerprint(balanced->tokens, balanced->symbols,
                                  arena.interner(), context.template_salt());
    }
    ScopedSpan span(tracer, Layer::kCacheLookup);
    memoized = cache->Lookup(fingerprint);
  }

  if (memoized != nullptr && !has_rules) {
    std::optional<webrbd::StreamBoundary> boundary;
    {
      ScopedSpan span(tracer, Layer::kReapply);
      boundary = webrbd::ReapplyBoundaryArtifact(
          *memoized, balanced->tokens, balanced->symbols, arena.interner());
    }
    if (boundary.has_value()) {
      return finish(memoized->separator, DataRecordTable(),
                    boundary->separator_positions);
    }
    cache->RecordFallback();
    cache->Erase(fingerprint);
    memoized = nullptr;
  }

  Result<webrbd::TagTree> tree = Status::Internal("unreached");
  {
    ScopedSpan span(tracer, Layer::kTreeBuild);
    tree = webrbd::BuildTagTreeFromBalanced(std::move(balanced).value(),
                                            base.limits, &arena);
  }
  if (!tree.ok()) return tree.status();

  std::optional<webrbd::ReappliedBoundary> reapplied;
  if (memoized != nullptr) {
    {
      ScopedSpan span(tracer, Layer::kReapply);
      reapplied = webrbd::ReapplyBoundaryArtifact(*memoized, *tree);
    }
    if (!reapplied.has_value()) {
      cache->RecordFallback();
      cache->Erase(fingerprint);
      memoized = nullptr;
    }
  }

  const webrbd::TagNode* region = nullptr;
  if (reapplied.has_value()) {
    region = reapplied->subtree;
  } else {
    ScopedSpan span(tracer, Layer::kCandidates);
    auto analysis =
        webrbd::ExtractCandidateTags(*tree, base.candidate_options);
    if (!analysis.ok()) return analysis.status();
    region = analysis->subtree;
  }

  std::optional<webrbd::TextIndex> index;
  DataRecordTable table;
  if (has_rules) {
    {
      ScopedSpan span(tracer, Layer::kTextIndex);
      index.emplace(*tree, *region);
    }
    DataRecordTable text_table;
    {
      ScopedSpan span(tracer, Layer::kRecognize);
      text_table = recognizer.Recognize(index->text());
    }
    counters.text_bytes += index->text().size();
    counters.pattern_bytes += MatcherCount(recognizer) * index->text().size();
    ScopedSpan span(tracer, Layer::kDrt);
    std::vector<DataRecordEntry> repositioned;
    repositioned.reserve(text_table.size());
    for (DataRecordEntry entry : text_table.entries()) {
      entry.begin = index->ToDocumentOffset(entry.begin);
      entry.end = index->ToDocumentOffset(entry.end);
      repositioned.push_back(std::move(entry));
    }
    table = DataRecordTable(std::move(repositioned));
    counters.drt_entries += table.size();
  }

  std::string separator;
  if (reapplied.has_value()) {
    separator = memoized->separator;
  } else {
    webrbd::StandaloneDiscoveryOptions discovery_options(base);
    discovery_options.estimator =
        std::make_shared<webrbd::FixedRecordCountEstimator>(
            EstimateFromTable(context.ontology(), table));
    auto discovery = TracedDiscover(discovery_options, *tree, tracer);
    if (!discovery.ok()) return discovery.status();
    if (cache != nullptr) {
      ScopedSpan span(tracer, Layer::kCapture);
      captured = std::make_shared<const webrbd::BoundaryArtifact>(
          webrbd::CaptureBoundaryArtifact(*tree, *region, discovery.value()));
    }
    separator = discovery->separator;
  }

  const std::vector<size_t> cuts =
      index.has_value()
          ? index->SeparatorPositions(separator)
          : webrbd::TextIndex::SeparatorPositionsInRegion(*tree, *region,
                                                          separator);
  auto finished = finish(separator, table, cuts);
  if (!finished.ok()) return finished.status();
  if (captured != nullptr) cache->Put(fingerprint, std::move(captured));
  return finished;
}

}  // namespace perfbench
