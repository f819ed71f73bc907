// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Measurement helpers shared by the benchmark's workloads: quantiles with
// their sample counts, in-memory spans with self-time accounting, the
// open-loop schedule and its lateness bookkeeping, the output digest, and
// the one-line JSON result.

#ifndef WEBRBD_PERFBENCH_BENCH_SUPPORT_H_
#define WEBRBD_PERFBENCH_BENCH_SUPPORT_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "extract/record_sink.h"
#include "util/fnv.h"
#include "util/status.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Quantiles ------------------------------------------------------------

/// A quantile together with how many samples it was taken from and how
/// many lie strictly above it — a p99 with fewer than ten samples beyond
/// it is not supported by the data.
struct QuantileEstimate {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Linear-interpolation quantile (q in [0, 1]) of `samples`; the input
/// need not be sorted. An empty input yields {0, 0, 0}.
QuantileEstimate Quantile(std::vector<double> samples, double q);

/// Shorthand for Quantile(samples, 0.5).value.
double Median(std::vector<double> samples);

/// The median, over consecutive windows of `window` samples (in the order
/// given, normally completion order), of each window's q-quantile; a short
/// last window joins the one before it. A stall of the host (a vCPU
/// descheduled for a second) then moves one window's tail, not the
/// reported one. `samples` and `beyond` describe one window.
QuantileEstimate WindowedQuantile(const std::vector<double>& samples, double q,
                                  size_t window);

/// WindowedQuantile for several quantiles, taken as the samples arrive. It
/// holds fewer than two windows of samples, so a long run's bookkeeping
/// does not grow with the run. Result(i) equals
/// WindowedQuantile(every sample added, qs[i], window).
class StreamingWindowedQuantiles {
 public:
  StreamingWindowedQuantiles(std::vector<double> qs, size_t window);

  void Add(double sample);
  QuantileEstimate Result(size_t i) const;

 private:
  std::vector<double> qs_;
  size_t window_;
  std::vector<double> open_;                 // samples of the open windows
  std::vector<std::vector<double>> closed_;  // [q][closed window] values
  std::vector<QuantileEstimate> first_;      // [q], of the first window
};

/// Completion rate per second over consecutive windows of `window`
/// completion timestamps (ns, any order), median across windows.
double WindowedRate(std::vector<int64_t> completions_ns, size_t window);

// --- Spans ----------------------------------------------------------------

/// The layers the traced replay times, one span kind each (README.md maps
/// them to metrics).
enum class Layer : int {
  kDocument,
  kLexBalance,
  kFingerprint,
  kCacheLookup,
  kReapply,
  kTreeBuild,
  kCandidates,
  kTextIndex,
  kRecognize,
  kDrt,
  kDiscover,
  kRankOm,
  kRankRp,
  kRankSd,
  kRankIt,
  kRankHt,
  kCapture,
  kDbgen,
  kStoreAppend,
  kStoreFlush,
  kStoreScan,
  kHttpParse,
  kServeHandle,
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

/// In-memory span recorder. Spans nest: a span begun while another is open
/// is its child. Nothing is written out until the caller asks for totals.
class Tracer {
 public:
  struct Span {
    Layer layer;
    int parent;  // index into spans(), -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Opens a span of `layer` at `now_ns`, child of the innermost open span.
  int Begin(Layer layer, int64_t now_ns);
  /// Closes span `id` at `now_ns`; spans must close innermost first.
  void End(int id, int64_t now_ns);

  int Begin(Layer layer) { return Begin(layer, NowNs()); }
  void End(int id) { End(id, NowNs()); }

  /// Per layer: summed span duration minus the part covered by its direct
  /// children (self time), in ns.
  std::array<int64_t, kLayerCount> SelfNs() const;
  /// Per layer: number of spans recorded.
  std::array<uint64_t, kLayerCount> Counts() const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer)
      : tracer_(tracer), id_(tracer.Begin(layer)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- Open loop ------------------------------------------------------------

/// A fixed-rate send schedule: request k is due at start + k / rate. The
/// schedule never adapts to the system under test.
struct OpenLoopSchedule {
  double rate_per_s = 1;
  int64_t start_ns = 0;

  int64_t DueNs(size_t k) const;
  /// Requests due in [start, start + seconds).
  size_t CountWithin(double seconds) const;
};

/// One request's timeline. `dispatched_ns` is when the generator released
/// it (lateness = dispatched - due is the generator's own delay); latency
/// is measured from the DUE time, so a stall also charges the requests it
/// delayed.
struct RequestTiming {
  int64_t due_ns = 0;
  int64_t dispatched_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

inline double LatencyMs(const RequestTiming& t) {
  return static_cast<double>(t.done_ns - t.due_ns) / 1e6;
}
inline double LateMs(const RequestTiming& t) {
  return static_cast<double>(t.dispatched_ns - t.due_ns) / 1e6;
}

/// Verdict over one fixed-rate rung of the load ladder.
struct RungResult {
  double offered_rate = 0;
  size_t failed = 0;
  double achieved_rate = 0;  // successful completions / rung span
  QuantileEstimate p50_ms;
  QuantileEstimate p90_ms;
  QuantileEstimate p99_ms;
  QuantileEstimate late_p99_ms;
  bool meets_limit = false;
};

/// Summarizes a rung whose `timings` are in due order. Latency quantiles
/// are WindowedQuantile over `window` requests. The rung meets the latency
/// limit when nothing failed, its p99 is within `limit_ms`, and
/// completions kept up with the offered rate (no growing backlog: the last
/// request finished within `limit_ms` of the last due time).
RungResult EvaluateRung(const std::vector<RequestTiming>& timings,
                        double offered_rate, double limit_ms, size_t window);

// --- Output digest --------------------------------------------------------

/// Hash of one delivered record: record index, entity and every (field,
/// value) pair, length-prefixed. The document a record belongs to enters
/// the digest through DigestSink's per-document grouping and the
/// document's position in CorpusDigest, so a single-document extraction
/// (which stamps document index 0) and a batch hash alike.
uint64_t HashRecord(const webrbd::PopulatedRecord& record);

/// A RecordSink that folds every record into the hash chain of the
/// document named by its document_index, and keeps the per-record hashes
/// in delivery order.
class DigestSink final : public webrbd::RecordSink {
 public:
  [[nodiscard]] webrbd::Status Write(
      const webrbd::PopulatedRecord& record) override;

  /// The record-hash chain of `document_index` (FNV offset basis when the
  /// document delivered nothing).
  uint64_t DocumentHash(uint32_t document_index) const;
  const std::vector<uint64_t>& record_hashes() const { return records_; }

 private:
  std::map<uint32_t, webrbd::FnvHasher> documents_;
  std::vector<uint64_t> records_;
};

/// Hash of one document's result: its outcome ("sep:<tag>" on success,
/// "err:<StatusCode>" on failure) and its record-hash chain.
uint64_t DocumentDigest(std::string_view outcome, uint64_t records_hash);

/// Order-sensitive digest over per-document digests.
uint64_t CorpusDigest(const std::vector<uint64_t>& document_digests);

std::string HexDigest(uint64_t digest);

// --- Result line ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's final stdout line.
std::string RenderResultJson(bool correct, uint64_t attempted, uint64_t failed,
                             const std::vector<Metric>& metrics);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // WEBRBD_PERFBENCH_BENCH_SUPPORT_H_
