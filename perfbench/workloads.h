// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The benchmark's three workloads and the metric catalog they report
// against. Every workload reports every end-to-end metric (untraced run)
// or every per-layer metric (traced run); a layer that does not run on a
// workload reports 0. README.md maps each metric to its layer and to the
// workload it should move on.

#ifndef WEBRBD_PERFBENCH_WORKLOADS_H_
#define WEBRBD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_support.h"
#include "store/record_store.h"
#include "traced_pipeline.h"
#include "util/result.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "higher" or "lower"
};

/// End-to-end metrics, reported with --trace 0.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics, reported with --trace 1.
const std::vector<MetricSpec>& PerLayerMetrics();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;      // scratch directory for store files
  std::string serve_binary;  // the webrbd_serve executable
  /// The recorded output digest for (workload, seed), when one exists.
  std::optional<std::string> pinned_digest;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;  // metric name -> value

  /// Records a correctness problem (printed to stderr, fails the run).
  void Fail(const std::string& problem);
};

RunResult RunCrawlFull(const RunConfig& config);
RunResult RunTemplateSkew(const RunConfig& config);
RunResult RunServeIngest(const RunConfig& config);

// --- Shared by the workloads ----------------------------------------------

/// Opens a fresh store file at `path` (any previous file is removed).
webrbd::Result<std::unique_ptr<webrbd::store::RecordStore>> OpenFreshStore(
    const std::string& path);

/// Outcome of the seeded store read phase.
struct ScanPhaseResult {
  std::vector<double> latency_us;
  size_t queries = 0;
  size_t mismatches = 0;
};

/// Runs seeded Scans over `store`: three in four read a 25-key range, one
/// in four a single key. Every returned record's HashRecord must equal
/// `expected[key]`. Each query is a Layer::kStoreScan span. An empty store
/// runs no queries.
ScanPhaseResult RunScanPhase(webrbd::store::RecordStore& store,
                             const std::vector<uint64_t>& expected,
                             uint64_t seed, Tracer& tracer);

/// Checks a read phase and fills the store.scan* metrics.
void ReportScanPhase(const Tracer& tracer, const ScanPhaseResult& scans,
                     RunResult& result);

/// Per-layer metrics derived from a traced replay.
void ReportTrace(const Tracer& tracer, const TraceCounters& counters,
                 RunResult& result);

/// Prints one manifest line (`manifest {...}`) to stdout.
void PrintManifest(const std::string& workload,
                   const std::vector<std::pair<std::string, std::string>>&
                       fields);

/// FNV digest of a corpus's input bytes.
uint64_t InputDigest(const std::vector<std::string_view>& documents);

/// Median of `repeats` timings of `setup` (seconds). `teardown`, untimed,
/// runs before each repeat to release what the previous one built.
template <typename Teardown, typename Setup>
double MedianSetupSeconds(int repeats, Teardown&& teardown, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    teardown();
    const int64_t start = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(seconds);
}

}  // namespace perfbench

#endif  // WEBRBD_PERFBENCH_WORKLOADS_H_
