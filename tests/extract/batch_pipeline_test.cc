// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/extraction_context.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "extract/record_sink.h"
#include "gen/sites.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

std::vector<std::string> SmallCorpus(Domain domain, int documents) {
  const auto& sites = gen::CalibrationSites();
  std::vector<std::string> corpus;
  corpus.reserve(static_cast<size_t>(documents));
  for (int i = 0; i < documents; ++i) {
    const auto& site = sites[static_cast<size_t>(i) % sites.size()];
    corpus.push_back(
        gen::RenderDocument(site, domain, i / static_cast<int>(sites.size()))
            .html);
  }
  return corpus;
}

// Runs `corpus` through a fresh context over `ontology` into a BufferSink.
Result<BatchOutcome> RunBatch(const std::vector<std::string>& corpus,
                              const Ontology& ontology,
                              const BatchRunOptions& run = {},
                              ContextOptions options = {}) {
  auto context = ExtractionContext::Create(ontology, std::move(options));
  if (!context.ok()) return context.status();
  BufferSink sink;
  return context->ExtractCorpusInto(corpus, sink, run);
}

TEST(BatchPipelineTest, MatchesSingleDocumentPipeline) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 4);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  CatalogSink batch_sink(context->instance_generator());
  auto batch = context->ExtractCorpusInto(corpus, batch_sink);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->documents.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    CatalogSink single_sink(context->instance_generator());
    auto single = context->ExtractDocumentInto(corpus[i], single_sink);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch->documents[i].ok());
    EXPECT_EQ(batch->documents[i]->separator, single->separator);
    EXPECT_EQ(batch->documents[i]->partitions.size(),
              single->partitions.size());
    auto batch_catalog = batch_sink.TakeCatalog(static_cast<uint32_t>(i));
    auto single_catalog = single_sink.TakeCatalog();
    ASSERT_TRUE(batch_catalog.ok());
    ASSERT_TRUE(single_catalog.ok());
    EXPECT_EQ(batch_catalog->ToString(), single_catalog->ToString());
  }
}

TEST(BatchPipelineTest, DeterministicAcrossThreadCounts) {
  Ontology ontology = BundledOntology(Domain::kCarAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kCarAds, 20);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  BatchRunOptions serial;
  serial.num_threads = 1;
  CatalogSink one_sink(context->instance_generator());
  auto one = context->ExtractCorpusInto(corpus, one_sink, serial);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  BatchRunOptions parallel;
  parallel.num_threads = 8;
  parallel.chunk_size = 1;  // maximize interleaving
  CatalogSink eight_sink(context->instance_generator());
  auto eight = context->ExtractCorpusInto(corpus, eight_sink, parallel);
  ASSERT_TRUE(eight.ok()) << eight.status().ToString();

  EXPECT_EQ(one->stats.threads_used, 1);
  EXPECT_EQ(eight->stats.threads_used, 8);
  ASSERT_EQ(one->documents.size(), eight->documents.size());
  for (size_t i = 0; i < one->documents.size(); ++i) {
    ASSERT_EQ(one->documents[i].ok(), eight->documents[i].ok()) << "doc " << i;
    if (!one->documents[i].ok()) continue;
    EXPECT_EQ(one->documents[i]->separator, eight->documents[i]->separator);
    EXPECT_EQ(one->documents[i]->table.size(), eight->documents[i]->table.size());
    auto one_catalog = one_sink.TakeCatalog(static_cast<uint32_t>(i));
    auto eight_catalog = eight_sink.TakeCatalog(static_cast<uint32_t>(i));
    ASSERT_TRUE(one_catalog.ok());
    ASSERT_TRUE(eight_catalog.ok());
    EXPECT_EQ(one_catalog->ToString(), eight_catalog->ToString());
  }
  EXPECT_EQ(one->stats.succeeded, eight->stats.succeeded);
  EXPECT_EQ(one->stats.failed, eight->stats.failed);
  EXPECT_EQ(one->stats.total_bytes, eight->stats.total_bytes);
}

TEST(BatchPipelineTest, PerDocumentErrorsAreAggregatedNotDropped) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  corpus.insert(corpus.begin() + 1, "no markup at all");  // doomed document

  BatchRunOptions run;
  run.num_threads = 4;
  auto batch = RunBatch(corpus, ontology, run);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->documents.size(), 4u);
  EXPECT_TRUE(batch->documents[0].ok());
  EXPECT_FALSE(batch->documents[1].ok());
  EXPECT_TRUE(batch->documents[2].ok());
  EXPECT_TRUE(batch->documents[3].ok());
  EXPECT_EQ(batch->stats.succeeded, 3u);
  EXPECT_EQ(batch->stats.failed, 1u);
  size_t counted = 0;
  for (const auto& [code, count] : batch->stats.failures_by_code) {
    counted += count;
  }
  EXPECT_EQ(counted, 1u);
  // The stats render a human-readable summary.
  EXPECT_NE(batch->stats.ToString().find("1 failed"), std::string::npos);
}

TEST(BatchPipelineTest, EmptyCorpus) {
  Ontology ontology = BundledOntology(Domain::kCourses).value();
  auto batch = RunBatch({}, ontology);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->documents.empty());
  EXPECT_EQ(batch->stats.documents, 0u);
  EXPECT_EQ(batch->stats.failed, 0u);
}

TEST(BatchPipelineTest, BadOntologyFailsTheWholeBatch) {
  ObjectSet broken;
  broken.name = "Broken";
  broken.frame.value_patterns = {"(a"};
  Ontology ontology("broken", "Entity", {broken});
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 2);
  auto batch = RunBatch(corpus, ontology);
  EXPECT_FALSE(batch.ok());
}

TEST(BatchPipelineTest, ReportsThroughputStats) {
  Ontology ontology = BundledOntology(Domain::kJobAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kJobAds, 6);
  BatchRunOptions run;
  run.num_threads = 2;
  auto batch = RunBatch(corpus, ontology, run);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats.documents, 6u);
  size_t bytes = 0;
  for (const std::string& document : corpus) bytes += document.size();
  EXPECT_EQ(batch->stats.total_bytes, bytes);
  EXPECT_GT(batch->stats.wall_seconds, 0.0);
  EXPECT_GT(batch->stats.docs_per_second, 0.0);
  EXPECT_GT(batch->stats.bytes_per_second, 0.0);
}

TEST(BatchPipelineTest, UsesTheProvidedCache) {
  RecognizerCache cache;
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  ContextOptions options;
  options.cache = &cache;
  ASSERT_TRUE(RunBatch(corpus, ontology, {}, options).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // A second batch over the same ontology recompiles nothing.
  ASSERT_TRUE(RunBatch(corpus, ontology, {}, options).ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(BatchPipelineTest, ThrowingTaskBecomesPerDocumentInternalErrors) {
  // Regression: an exception escaping one chunk task used to abandon the
  // remaining futures and then dereference the chunk's unengaged result
  // slots (UB). The throw is injected through document_hook; every
  // document must still get a result and the affected ones must carry
  // Status::Internal.
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 12);
  BatchRunOptions run;
  run.num_threads = 4;
  run.chunk_size = 3;
  run.document_hook = [](size_t index) {
    if (index == 4) throw std::runtime_error("injected fault");
  };
  auto batch = RunBatch(corpus, ontology, run);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->documents.size(), corpus.size());
  size_t internal = 0;
  for (size_t i = 0; i < batch->documents.size(); ++i) {
    if (batch->documents[i].ok()) continue;
    EXPECT_EQ(batch->documents[i].status().code(), Status::Code::kInternal);
    EXPECT_NE(batch->documents[i].status().message().find("injected fault"),
              std::string::npos);
    ++internal;
  }
  // The throw hits document 4; its chunk's not-yet-processed documents
  // (4 and 5 of chunk [3,6)) fail, everything else completes.
  EXPECT_GE(internal, 1u);
  EXPECT_LE(internal, run.chunk_size);
  EXPECT_EQ(batch->stats.failed, internal);
  EXPECT_EQ(batch->stats.succeeded, corpus.size() - internal);
  EXPECT_EQ(batch->stats.failures_by_code.at("Internal"), internal);
}

TEST(BatchPipelineTest, ThrowingHookOnInlinePathIsAlsoContained) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  BatchRunOptions run;
  run.num_threads = 1;  // inline path, no pool
  run.document_hook = [](size_t index) {
    if (index == 1) throw std::runtime_error("inline fault");
  };
  auto batch = RunBatch(corpus, ontology, run);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->documents.size(), 3u);
  EXPECT_TRUE(batch->documents[0].ok());
  EXPECT_FALSE(batch->documents[1].ok());
  EXPECT_FALSE(batch->documents[2].ok());  // inline run stops at the throw
  EXPECT_EQ(batch->documents[1].status().code(), Status::Code::kInternal);
}

TEST(BatchPipelineTest, StageLatenciesFilledWhenMetricsEnabled) {
  obs::SetMetricsEnabled(true);
  Ontology ontology = BundledOntology(Domain::kCarAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kCarAds, 6);
  BatchRunOptions run;
  run.num_threads = 2;
  auto batch = RunBatch(corpus, ontology, run);
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  const auto& stages = batch->stats.stage_latencies;
  ASSERT_EQ(stages.size(), obs::PipelineStageNames().size());
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i].metric,
              std::string(obs::PipelineStageNames()[i].metric));
  }
  // Every successful document records one span per core stage...
  for (const char* name : {"lex", "tree", "document", "recognize", "drt"}) {
    bool found = false;
    for (const StageLatencySummary& stage : stages) {
      if (stage.name != name) continue;
      found = true;
      EXPECT_GE(stage.count, corpus.size()) << name;
      EXPECT_GE(stage.total_seconds, 0.0);
      EXPECT_LE(stage.p50_seconds, stage.p99_seconds);
    }
    EXPECT_TRUE(found) << name;
  }
  // ...and the pool was actually utilized.
  EXPECT_GT(batch->stats.pool_utilization, 0.0);
  EXPECT_LE(batch->stats.pool_utilization, 1.0);

  // Both renderings carry the stage table.
  EXPECT_NE(batch->stats.ToString().find("stage latency"), std::string::npos);
  EXPECT_NE(batch->stats.ToJson().find("\"stage_latencies\""),
            std::string::npos);
  EXPECT_NE(batch->stats.ToJson().find("webrbd_stage_lex_seconds"),
            std::string::npos);
}

TEST(BatchPipelineTest, StageLatenciesEmptyWhenMetricsDisabled) {
  ASSERT_FALSE(obs::MetricsEnabled());
  Ontology ontology = BundledOntology(Domain::kJobAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kJobAds, 2);
  auto batch = RunBatch(corpus, ontology);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->stats.stage_latencies.empty());
  EXPECT_EQ(batch->stats.pool_utilization, 0.0);
}

TEST(BatchPipelineTest, LongFailureCodeRowsSurviveToString) {
  // Regression: ToString used fixed 160-byte snprintf lines, silently
  // truncating long failure-code rows.
  CorpusStats stats;
  stats.documents = 1;
  stats.failed = 1;
  const std::string long_code(300, 'x');
  stats.failures_by_code[long_code] = 1;
  EXPECT_NE(stats.ToString().find(long_code), std::string::npos);
}

}  // namespace
}  // namespace webrbd
