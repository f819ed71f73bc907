// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Span counts of the per-stage latency table: each stage runs once per
// document that needs it, so its span count is a work count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "extract/extraction_context.h"
#include "extract/record_sink.h"
#include "gen/sites.h"
#include "gen/synthetic_web.h"
#include "obs/metrics.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

uint64_t StageCount(const CorpusStats& stats, const std::string& name) {
  for (const StageLatencySummary& stage : stats.stage_latencies) {
    if (stage.name == name) return stage.count;
  }
  ADD_FAILURE() << "no stage " << name;
  return 0;
}

// With the template cache off every document misses it, runs the candidate
// analysis and discovery. The analysis the pipeline runs to find the
// region is the one discovery ranks, so "candidates" counts one span per
// document, not two.
TEST(ObsStageCountsTest, CandidateAnalysisRunsOncePerMissedDocument) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  ContextOptions options;
  options.template_memoization = TemplateMemoization::kNever;
  auto context = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  std::vector<std::string> corpus;
  const auto& sites = gen::CalibrationSites();
  for (size_t i = 0; i < 6; ++i) {
    corpus.push_back(
        gen::RenderDocument(sites[i % sites.size()], Domain::kObituaries,
                            static_cast<int>(i))
            .html);
  }

  BatchRunOptions run;
  run.num_threads = 2;
  obs::SetMetricsEnabled(true);
  BufferSink sink;
  auto batch = context->ExtractCorpusInto(corpus, sink, run);
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->stats.succeeded, corpus.size());
  EXPECT_EQ(StageCount(batch->stats, "candidates"), corpus.size());
  EXPECT_EQ(StageCount(batch->stats, "document"), corpus.size());
}

}  // namespace
}  // namespace webrbd
