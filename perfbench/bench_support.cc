// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "bench_support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

QuantileEstimate Quantile(std::vector<double> samples, double q) {
  QuantileEstimate estimate;
  estimate.samples = samples.size();
  if (samples.empty()) return estimate;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(below);
  estimate.value =
      samples[below] + (samples[above] - samples[below]) * fraction;
  estimate.beyond = static_cast<size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), estimate.value));
  return estimate;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5).value;
}

QuantileEstimate WindowedQuantile(const std::vector<double>& samples, double q,
                                  size_t window) {
  window = std::max<size_t>(window, 1);
  const size_t windows = std::max<size_t>(1, samples.size() / window);
  std::vector<double> values;
  QuantileEstimate first;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * window;
    const size_t end = w + 1 == windows ? samples.size() : begin + window;
    QuantileEstimate estimate = Quantile(
        std::vector<double>(samples.begin() + static_cast<ptrdiff_t>(begin),
                            samples.begin() + static_cast<ptrdiff_t>(end)),
        q);
    if (w == 0) first = estimate;
    values.push_back(estimate.value);
  }
  first.value = Median(values);
  return first;
}

StreamingWindowedQuantiles::StreamingWindowedQuantiles(std::vector<double> qs,
                                                       size_t window)
    : qs_(std::move(qs)),
      window_(std::max<size_t>(window, 1)),
      closed_(qs_.size()),
      first_(qs_.size()) {}

void StreamingWindowedQuantiles::Add(double sample) {
  open_.push_back(sample);
  // A window closes once a whole window follows it, so the samples left at
  // the end (one to two windows' worth) form the last window, as in
  // WindowedQuantile.
  if (open_.size() < 2 * window_) return;
  const std::vector<double> window(open_.begin(),
                                   open_.begin() + static_cast<ptrdiff_t>(window_));
  for (size_t i = 0; i < qs_.size(); ++i) {
    const QuantileEstimate estimate = Quantile(window, qs_[i]);
    if (closed_[i].empty()) first_[i] = estimate;
    closed_[i].push_back(estimate.value);
  }
  open_.erase(open_.begin(), open_.begin() + static_cast<ptrdiff_t>(window_));
}

QuantileEstimate StreamingWindowedQuantiles::Result(size_t i) const {
  std::vector<double> values = closed_[i];
  const QuantileEstimate last = Quantile(open_, qs_[i]);
  if (!open_.empty()) values.push_back(last.value);
  QuantileEstimate result = closed_[i].empty() ? last : first_[i];
  result.value = Median(values);
  return result;
}

double WindowedRate(std::vector<int64_t> completions_ns, size_t window) {
  std::sort(completions_ns.begin(), completions_ns.end());
  window = std::max<size_t>(window, 2);
  std::vector<double> rates;
  for (size_t begin = 0; begin + window <= completions_ns.size();
       begin += window) {
    const int64_t span = completions_ns[begin + window - 1] - completions_ns[begin];
    if (span > 0) {
      rates.push_back(static_cast<double>(window - 1) /
                      (static_cast<double>(span) / 1e9));
    }
  }
  return Median(rates);
}

int Tracer::Begin(Layer layer, int64_t now_ns) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{layer, parent, now_ns, now_ns});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int id, int64_t now_ns) {
  // Spans are strictly nested (RAII), so `id` is the innermost open span.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  spans_[static_cast<size_t>(id)].end_ns = now_ns;
}

std::array<int64_t, kLayerCount> Tracer::SelfNs() const {
  std::array<int64_t, kLayerCount> self{};
  for (const Span& span : spans_) {
    const int64_t duration = span.end_ns - span.start_ns;
    self[static_cast<size_t>(span.layer)] += duration;
    if (span.parent >= 0) {
      self[static_cast<size_t>(spans_[static_cast<size_t>(span.parent)].layer)] -=
          duration;
    }
  }
  return self;
}

std::array<uint64_t, kLayerCount> Tracer::Counts() const {
  std::array<uint64_t, kLayerCount> counts{};
  for (const Span& span : spans_) ++counts[static_cast<size_t>(span.layer)];
  return counts;
}

int64_t OpenLoopSchedule::DueNs(size_t k) const {
  return start_ns + static_cast<int64_t>(std::llround(
                        static_cast<double>(k) * 1e9 / rate_per_s));
}

size_t OpenLoopSchedule::CountWithin(double seconds) const {
  return static_cast<size_t>(std::ceil(seconds * rate_per_s));
}

RungResult EvaluateRung(const std::vector<RequestTiming>& timings,
                        double offered_rate, double limit_ms, size_t window) {
  RungResult rung;
  rung.offered_rate = offered_rate;
  if (timings.empty()) return rung;
  std::vector<double> latency;
  std::vector<double> late;
  int64_t first_due = timings.front().due_ns;
  int64_t last_due = timings.front().due_ns;
  int64_t last_done = timings.front().done_ns;
  for (const RequestTiming& t : timings) {
    first_due = std::min(first_due, t.due_ns);
    last_due = std::max(last_due, t.due_ns);
    last_done = std::max(last_done, t.done_ns);
    late.push_back(LateMs(t));
    if (!t.ok) {
      ++rung.failed;
      continue;
    }
    latency.push_back(LatencyMs(t));
  }
  // A span of N requests at rate r covers N / r seconds of schedule.
  const double span_s = static_cast<double>(timings.size()) / offered_rate;
  rung.achieved_rate =
      static_cast<double>(latency.size()) /
      std::max(span_s, static_cast<double>(last_done - first_due) / 1e9);
  rung.p50_ms = WindowedQuantile(latency, 0.50, window);
  rung.p90_ms = WindowedQuantile(latency, 0.90, window);
  rung.p99_ms = WindowedQuantile(latency, 0.99, window);
  rung.late_p99_ms = WindowedQuantile(late, 0.99, window);
  const double drain_ms = static_cast<double>(last_done - last_due) / 1e6;
  rung.meets_limit = rung.failed == 0 && rung.p99_ms.value <= limit_ms &&
                     drain_ms <= limit_ms;
  return rung;
}

uint64_t HashRecord(const webrbd::PopulatedRecord& record) {
  webrbd::FnvHasher fnv;
  fnv.AddU64(record.record_index);
  fnv.AddField(record.entity);
  fnv.AddSize(record.fields.size());
  for (const auto& [name, value] : record.fields) {
    fnv.AddField(name);
    fnv.AddField(value);
  }
  return fnv.hash();
}

webrbd::Status DigestSink::Write(const webrbd::PopulatedRecord& record) {
  const uint64_t hash = HashRecord(record);
  documents_[record.document_index].AddU64(hash);
  records_.push_back(hash);
  return webrbd::Status::OK();
}

uint64_t DigestSink::DocumentHash(uint32_t document_index) const {
  auto it = documents_.find(document_index);
  return it == documents_.end() ? webrbd::FnvHasher().hash()
                                : it->second.hash();
}

uint64_t DocumentDigest(std::string_view outcome, uint64_t records_hash) {
  webrbd::FnvHasher fnv;
  fnv.AddField(outcome);
  fnv.AddU64(records_hash);
  return fnv.hash();
}

uint64_t CorpusDigest(const std::vector<uint64_t>& document_digests) {
  webrbd::FnvHasher fnv;
  fnv.AddSize(document_digests.size());
  for (uint64_t digest : document_digests) fnv.AddU64(digest);
  return fnv.hash();
}

std::string HexDigest(uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

std::string RenderResultJson(bool correct, uint64_t attempted, uint64_t failed,
                             const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    char value[64];
    // %.17g keeps every digit of the measured double; non-finite values
    // (which JSON cannot carry) are reported as 0.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
