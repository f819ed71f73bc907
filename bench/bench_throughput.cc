// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Corpus-scale throughput harness for the batch-extraction engine
// (ExtractionContext::ExtractCorpusInto). Sweeps worker threads over generated
// corpora and reports docs/sec (items_per_second) and bytes/sec
// (bytes_per_second), so scaling curves and the recognizer-cache win are
// machine-readable:
//
//   build/bench/bench_throughput --benchmark_out=bench_throughput.json
//       --benchmark_out_format=json
//
// Every run populates catalogs through a CatalogSink, so all of them
// measure the same work. Reading the output (see docs/performance.md):
//   - BM_PerDocumentLoopNoCache/N: the pre-batch-engine baseline — a
//     fresh recognizer compiled and a fresh context built per document.
//   - BM_PerDocumentLoopCached/N: the same loop rebuilding the context per
//     document through the recognizer cache.
//   - BM_BatchPipeline/T/N: the batch engine with T worker threads over an
//     N-document corpus. items_per_second is corpus docs/sec; compare
//     T=1 with BM_PerDocumentLoopCached to see that batching adds no
//     overhead, and T=1 vs T=8 for the scaling curve.
//   - BM_BatchPipelineInstrumented/T/N: the same run with stage metrics
//     enabled; counters carry each stage's p50/p99 (microseconds) and the
//     pool utilization. Compare its docs/sec against BM_BatchPipeline at
//     the same T/N for the enabled-metrics overhead (docs/observability.md
//     budgets it at under 2%).

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "extract/extraction_context.h"
#include "extract/recognizer.h"
#include "extract/record_sink.h"
#include "extract/template_cache.h"
#include "gen/sites.h"
#include "gen/template_skew.h"
#include "obs/metrics.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

const Ontology& BenchOntology() {
  static const Ontology ontology =
      BundledOntology(Domain::kObituaries).value();
  return ontology;
}

// Renders (once per size) an N-document obituary corpus cycled across the
// Table 1 calibration sites, so layouts vary the way a crawl's would.
const std::vector<std::string>& Corpus(size_t documents) {
  static std::map<size_t, std::vector<std::string>> cache;
  auto it = cache.find(documents);
  if (it != cache.end()) return it->second;
  const auto& sites = gen::CalibrationSites();
  std::vector<std::string> corpus;
  corpus.reserve(documents);
  for (size_t i = 0; i < documents; ++i) {
    const auto& site = sites[i % sites.size()];
    corpus.push_back(gen::RenderDocument(site, Domain::kObituaries,
                                         static_cast<int>(i / sites.size()))
                         .html);
  }
  return cache.emplace(documents, std::move(corpus)).first->second;
}

size_t CorpusBytes(const std::vector<std::string>& corpus) {
  size_t bytes = 0;
  for (const std::string& document : corpus) bytes += document.size();
  return bytes;
}

// The old per-document loop: matching rules recompiled for every document,
// exactly what the pipeline did before the recognizer cache.
void BM_PerDocumentLoopNoCache(benchmark::State& state) {
  const auto& corpus = Corpus(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const std::string& document : corpus) {
      auto recognizer = Recognizer::Create(BenchOntology());
      auto context = ExtractionContext::FromCompiledRecognizer(
          BenchOntology(), *recognizer);
      CatalogSink sink(context.instance_generator());
      benchmark::DoNotOptimize(context.ExtractDocumentInto(document, sink));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CorpusBytes(corpus)));
}
BENCHMARK(BM_PerDocumentLoopNoCache)->Arg(100)->Unit(benchmark::kMillisecond);

// The same loop through the process-wide recognizer cache, rebuilding the
// context per document.
void BM_PerDocumentLoopCached(benchmark::State& state) {
  const auto& corpus = Corpus(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const std::string& document : corpus) {
      auto context = ExtractionContext::Create(BenchOntology());
      if (!context.ok()) {
        state.SkipWithError(context.status().ToString().c_str());
        return;
      }
      CatalogSink sink(context->instance_generator());
      benchmark::DoNotOptimize(context->ExtractDocumentInto(document, sink));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CorpusBytes(corpus)));
}
BENCHMARK(BM_PerDocumentLoopCached)->Arg(100)->Unit(benchmark::kMillisecond);

// The batch engine: range(0) worker threads over a range(1)-document
// corpus. UseRealTime because the work happens on pool threads.
void BM_BatchPipeline(benchmark::State& state) {
  // Baseline runs measure the disabled-metrics hot path.
  obs::SetMetricsEnabled(false);
  const auto& corpus = Corpus(static_cast<size_t>(state.range(1)));
  RecognizerCache cache;
  ContextOptions options;
  options.cache = &cache;
  auto context = ExtractionContext::Create(BenchOntology(), options);
  if (!context.ok()) {
    state.SkipWithError(context.status().ToString().c_str());
    return;
  }
  BatchRunOptions run;
  run.num_threads = static_cast<int>(state.range(0));
  size_t failed = 0;
  for (auto _ : state) {
    CatalogSink sink(context->instance_generator());
    auto batch = context->ExtractCorpusInto(corpus, sink, run);
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    failed = batch->stats.failed;
    benchmark::DoNotOptimize(batch);
  }
  state.counters["failed_docs"] =
      benchmark::Counter(static_cast<double>(failed));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CorpusBytes(corpus)));
}
BENCHMARK(BM_BatchPipeline)
    ->ArgsProduct({{1, 2, 4, 8}, {100, 1000}})
    ->ArgNames({"threads", "docs"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The batch engine with stage metrics ON: exports each stage's latency
// quantiles (from the run's CorpusStats stage table) as benchmark
// counters, and measures the instrumentation overhead against
// BM_BatchPipeline at the same threads/docs.
void BM_BatchPipelineInstrumented(benchmark::State& state) {
  obs::SetMetricsEnabled(true);
  const auto& corpus = Corpus(static_cast<size_t>(state.range(1)));
  RecognizerCache cache;
  ContextOptions options;
  options.cache = &cache;
  auto context = ExtractionContext::Create(BenchOntology(), options);
  if (!context.ok()) {
    obs::SetMetricsEnabled(false);
    state.SkipWithError(context.status().ToString().c_str());
    return;
  }
  BatchRunOptions run;
  run.num_threads = static_cast<int>(state.range(0));
  std::vector<StageLatencySummary> stage_latencies;
  double pool_utilization = 0;
  for (auto _ : state) {
    CatalogSink sink(context->instance_generator());
    auto batch = context->ExtractCorpusInto(corpus, sink, run);
    if (!batch.ok()) {
      obs::SetMetricsEnabled(false);
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    stage_latencies = std::move(batch->stats.stage_latencies);
    pool_utilization = batch->stats.pool_utilization;
    benchmark::DoNotOptimize(batch);
  }
  obs::SetMetricsEnabled(false);
  for (const StageLatencySummary& stage : stage_latencies) {
    state.counters[stage.name + "_p50_us"] =
        benchmark::Counter(stage.p50_seconds * 1e6);
    state.counters[stage.name + "_p99_us"] =
        benchmark::Counter(stage.p99_seconds * 1e6);
  }
  state.counters["pool_utilization"] = benchmark::Counter(pool_utilization);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CorpusBytes(corpus)));
}
BENCHMARK(BM_BatchPipelineInstrumented)
    ->ArgsProduct({{1, 4}, {100}})
    ->ArgNames({"threads", "docs"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---------------------------------------------------------------------------
// Template memoization (extract/template_cache.h).
//
// BM_BatchPipelineTemplateSkew/T/N/cache: the batch engine over an
// N-page corpus drawn from 100 templates with Zipf-distributed page
// counts — the repeat-template shape of a real crawl. cache=0 runs the
// full five-heuristic rank per page; cache=1 memoizes boundaries per
// template. The run is the STRUCTURE-ONLY configuration (an ontology with
// no object sets, so the recognizer and OM are no-ops): that isolates the
// structure stages the cache elides. With a full ontology the recognize
// stage dominates per-document time and bounds the whole-pipeline win
// near 1.05x (Amdahl; see docs/performance.md) — the cache is a
// structure-stage optimization, and this benchmark measures exactly that.
// Counters carry the observed hit rate; compare cache=1 vs cache=0
// items_per_second at the same T/N for the speedup the summary tooling
// (tools/bench_summary.py) reports.

const gen::TemplateSkewCorpus& SkewCorpus(size_t pages) {
  static std::map<size_t, gen::TemplateSkewCorpus> cache;
  auto it = cache.find(pages);
  if (it != cache.end()) return it->second;
  gen::TemplateSkewOptions options;
  options.num_templates = 100;
  options.num_pages = static_cast<int>(pages);
  return cache.emplace(pages, gen::GenerateTemplateSkewCorpus(options))
      .first->second;
}

const Ontology& StructureOnlyOntology() {
  // A named entity with zero object sets: nothing to recognize, OM
  // abstains, the catalog stage still has a table name.
  static const Ontology ontology("structure-only", "Record", {});
  return ontology;
}

void BM_BatchPipelineTemplateSkew(benchmark::State& state) {
  obs::SetMetricsEnabled(false);
  const bool cache_on = state.range(2) != 0;
  const auto& corpus = SkewCorpus(static_cast<size_t>(state.range(1)));

  TemplateCache template_cache;  // private: runs never share entries
  RecognizerCache recognizer_cache;
  ContextOptions options;
  options.cache = &recognizer_cache;
  options.template_memoization = cache_on ? TemplateMemoization::kAlways
                                          : TemplateMemoization::kNever;
  options.template_cache = &template_cache;
  auto context = ExtractionContext::Create(StructureOnlyOntology(), options);
  if (!context.ok()) {
    state.SkipWithError(context.status().ToString().c_str());
    return;
  }
  BatchRunOptions run;
  run.num_threads = static_cast<int>(state.range(0));
  size_t failed = 0;
  for (auto _ : state) {
    // The cache persists across iterations: the first iteration pays the
    // per-template misses, later ones run warm — matching a long-lived
    // batch service. Hit rate converges to 1 - templates / (iters * N).
    CatalogSink sink(context->instance_generator());
    auto batch = context->ExtractCorpusInto(corpus.pages, sink, run);
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    failed = batch->stats.failed;
    benchmark::DoNotOptimize(batch);
  }
  const double lookups = static_cast<double>(template_cache.hits() +
                                             template_cache.misses());
  state.counters["hit_rate"] = benchmark::Counter(
      lookups > 0 ? static_cast<double>(template_cache.hits()) / lookups : 0);
  state.counters["fallbacks"] =
      benchmark::Counter(static_cast<double>(template_cache.fallbacks()));
  state.counters["failed_docs"] =
      benchmark::Counter(static_cast<double>(failed));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.pages.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CorpusBytes(corpus.pages)));
}
BENCHMARK(BM_BatchPipelineTemplateSkew)
    ->ArgsProduct({{1, 8}, {10000}, {0, 1}})
    ->ArgNames({"threads", "docs", "cache"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace webrbd

BENCHMARK_MAIN();
