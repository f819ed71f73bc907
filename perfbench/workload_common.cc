// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include <filesystem>
#include <iostream>

#include "store/file_interface.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s", "lower"},
      {"docs_per_s", "docs/s", "higher"},
      {"doc_p50_ms", "ms", "lower"},
      {"doc_p90_ms", "ms", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"html.lex_balance.ns_per_doc", "ns", "lower"},
      {"html.lex_balance.mb_per_s", "MB/s", "higher"},
      {"html.tree_build.ns_per_doc", "ns", "lower"},
      {"html.tokens_per_doc", "count", "lower"},
      {"extract.fingerprint.ns_per_doc", "ns", "lower"},
      {"extract.template_cache.lookup.ns_per_doc", "ns", "lower"},
      {"extract.reapply.ns_per_doc", "ns", "lower"},
      {"extract.template_cache.hit_rate", "ratio", "higher"},
      {"extract.template_cache.lookups", "count", "lower"},
      {"extract.template_cache.fallbacks", "count", "lower"},
      {"core.candidates.ns_per_doc", "ns", "lower"},
      {"core.discover.ns_per_doc", "ns", "lower"},
      {"core.rank.om.ns_per_doc", "ns", "lower"},
      {"core.rank.rp.ns_per_doc", "ns", "lower"},
      {"core.rank.sd.ns_per_doc", "ns", "lower"},
      {"core.rank.it.ns_per_doc", "ns", "lower"},
      {"core.rank.ht.ns_per_doc", "ns", "lower"},
      {"extract.capture.ns_per_doc", "ns", "lower"},
      {"extract.text_index.ns_per_doc", "ns", "lower"},
      {"extract.recognize.ns_per_doc", "ns", "lower"},
      {"extract.recognize.mb_per_s", "MB/s", "higher"},
      {"extract.recognize.share", "ratio", "lower"},
      {"extract.recognize.pattern_bytes_per_doc", "count", "lower"},
      {"extract.drt.ns_per_doc", "ns", "lower"},
      {"extract.drt.entries_per_doc", "count", "lower"},
      {"extract.dbgen.ns_per_doc", "ns", "lower"},
      {"extract.records_per_doc", "count", "higher"},
      {"extract.document.ns_per_doc", "ns", "lower"},
      {"tail.doc_p99_ms", "ms", "lower"},
      {"store.append.ns_per_record", "ns", "lower"},
      {"store.flush_ms", "ms", "lower"},
      {"store.bytes_per_user_byte", "ratio", "lower"},
      {"store.scan.ns_per_query", "ns", "lower"},
      {"store.scan_p50_us", "us", "lower"},
      {"store.scan_p99_us", "us", "lower"},
      {"store.index_segments", "count", "lower"},
      {"pool.utilization", "ratio", "higher"},
      {"pool.imbalance", "ratio", "lower"},
      {"serve.http_parse.ns_per_req", "ns", "lower"},
      {"serve.handle.ms_per_req", "ms", "lower"},
      {"serve.queue_wait_ms.p99", "ms", "lower"},
      {"serve.low_p50_ms", "ms", "lower"},
      {"serve.low_p99_ms", "ms", "lower"},
      {"serve.rejected", "count", "lower"},
      {"serve.goodput_rps", "1/s", "higher"},
      {"loadgen.late_ms.p99", "ms", "lower"},
      {"robust.failed_docs.ResourceExhausted", "count", "lower"},
      {"robust.failed_docs.other", "count", "lower"},
      {"robust.error_rate", "ratio", "lower"},
      {"trace.overhead", "ratio", "lower"},
  };
  return metrics;
}

void RunResult::Fail(const std::string& problem) {
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << problem << "\n";
}

webrbd::Result<std::unique_ptr<webrbd::store::RecordStore>> OpenFreshStore(
    const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  auto file = webrbd::store::OpenPosixFile(path, /*create=*/true);
  if (!file.ok()) return file.status();
  return webrbd::store::RecordStore::Open(std::move(file).value());
}

ScanPhaseResult RunScanPhase(webrbd::store::RecordStore& store,
                             const std::vector<uint64_t>& expected,
                             uint64_t seed, Tracer& tracer) {
  constexpr size_t kQueries = 2000;
  constexpr uint64_t kRangeKeys = 25;
  ScanPhaseResult result;
  const uint64_t count = store.record_count();
  if (expected.size() != count) {
    result.mismatches = 1;
    return result;
  }
  if (count == 0) return result;
  webrbd::Rng rng(seed, /*stream=*/0x5ca9);
  result.latency_us.reserve(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    const bool range = q % 4 != 3;
    const uint64_t width = range ? std::min(kRangeKeys, count) : 1;
    const uint64_t first = rng.NextU64() % (count - width + 1);
    webrbd::store::ScanOptions options;
    options.min_key = first;
    options.max_key = first + width - 1;
    const int64_t start = NowNs();
    const int span = tracer.Begin(Layer::kStoreScan, start);
    webrbd::store::RecordStore::Iterator it = store.Scan(options);
    webrbd::store::StoredRecord record;
    uint64_t key = 0;
    uint64_t seen = 0;
    bool matched = true;
    while (it.Next(&record, &key)) {
      ++seen;
      if (key >= count || HashRecord(record) != expected[key]) matched = false;
    }
    const int64_t stop = NowNs();
    tracer.End(span, stop);
    if (!it.status().ok() || seen != width || !matched) ++result.mismatches;
    result.latency_us.push_back(static_cast<double>(stop - start) / 1e3);
    ++result.queries;
  }
  return result;
}

void ReportScanPhase(const Tracer& tracer, const ScanPhaseResult& scans,
                     RunResult& result) {
  if (scans.mismatches > 0) {
    result.Fail("store read phase: " + std::to_string(scans.mismatches) +
                " of " + std::to_string(scans.queries) +
                " scans returned wrong records");
  }
  if (scans.queries == 0) return;
  result.values["store.scan.ns_per_query"] =
      static_cast<double>(
          tracer.SelfNs()[static_cast<size_t>(Layer::kStoreScan)]) /
      static_cast<double>(scans.queries);
  result.values["store.scan_p50_us"] = Quantile(scans.latency_us, 0.50).value;
  result.values["store.scan_p99_us"] = Quantile(scans.latency_us, 0.99).value;
}

void ReportTrace(const Tracer& tracer, const TraceCounters& counters,
                 RunResult& result) {
  const std::array<int64_t, kLayerCount> self = tracer.SelfNs();
  const std::array<uint64_t, kLayerCount> spans = tracer.Counts();
  const double docs = static_cast<double>(std::max<uint64_t>(counters.documents, 1));
  auto self_ns = [&](Layer layer) {
    return static_cast<double>(self[static_cast<size_t>(layer)]);
  };
  auto per_doc = [&](Layer layer) { return self_ns(layer) / docs; };
  auto per_span = [&](Layer layer) {
    const uint64_t n = spans[static_cast<size_t>(layer)];
    return n == 0 ? 0.0 : self_ns(layer) / static_cast<double>(n);
  };
  auto mb_per_s = [](uint64_t bytes, double ns) {
    return ns <= 0 ? 0.0 : static_cast<double>(bytes) / (ns / 1e9) / 1e6;
  };

  // The document span's inclusive time: self time plus every descendant.
  double document_ns = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.layer == Layer::kDocument) {
      document_ns += static_cast<double>(span.end_ns - span.start_ns);
    }
  }

  auto& v = result.values;
  v["html.lex_balance.ns_per_doc"] = per_doc(Layer::kLexBalance);
  v["html.lex_balance.mb_per_s"] =
      mb_per_s(counters.bytes, self_ns(Layer::kLexBalance));
  v["html.tree_build.ns_per_doc"] = per_doc(Layer::kTreeBuild);
  v["html.tokens_per_doc"] = static_cast<double>(counters.tokens) / docs;
  v["extract.fingerprint.ns_per_doc"] = per_doc(Layer::kFingerprint);
  v["extract.template_cache.lookup.ns_per_doc"] = per_doc(Layer::kCacheLookup);
  v["extract.reapply.ns_per_doc"] = per_doc(Layer::kReapply);
  v["core.candidates.ns_per_doc"] = per_doc(Layer::kCandidates);
  v["core.discover.ns_per_doc"] = per_doc(Layer::kDiscover);
  v["core.rank.om.ns_per_doc"] = per_doc(Layer::kRankOm);
  v["core.rank.rp.ns_per_doc"] = per_doc(Layer::kRankRp);
  v["core.rank.sd.ns_per_doc"] = per_doc(Layer::kRankSd);
  v["core.rank.it.ns_per_doc"] = per_doc(Layer::kRankIt);
  v["core.rank.ht.ns_per_doc"] = per_doc(Layer::kRankHt);
  v["extract.capture.ns_per_doc"] = per_doc(Layer::kCapture);
  v["extract.text_index.ns_per_doc"] = per_doc(Layer::kTextIndex);
  v["extract.recognize.ns_per_doc"] = per_doc(Layer::kRecognize);
  v["extract.recognize.mb_per_s"] =
      mb_per_s(counters.text_bytes, self_ns(Layer::kRecognize));
  v["extract.recognize.share"] =
      document_ns <= 0 ? 0.0 : self_ns(Layer::kRecognize) / document_ns;
  v["extract.recognize.pattern_bytes_per_doc"] =
      static_cast<double>(counters.pattern_bytes) / docs;
  v["extract.drt.ns_per_doc"] = per_doc(Layer::kDrt);
  v["extract.drt.entries_per_doc"] =
      static_cast<double>(counters.drt_entries) / docs;
  v["extract.dbgen.ns_per_doc"] = per_doc(Layer::kDbgen);
  v["extract.records_per_doc"] = static_cast<double>(counters.records) / docs;
  v["extract.document.ns_per_doc"] = document_ns / docs;
  v["store.append.ns_per_record"] = per_span(Layer::kStoreAppend);
  v["store.flush_ms"] = per_span(Layer::kStoreFlush) / 1e6;
}

void PrintManifest(
    const std::string& workload,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string line = "manifest {\"workload\": \"" + workload + "\"";
  for (const auto& [key, value] : fields) {
    line += ", \"" + key + "\": " + value;
  }
  line += "}";
  std::cout << line << std::endl;
}

uint64_t InputDigest(const std::vector<std::string_view>& documents) {
  webrbd::FnvHasher fnv;
  fnv.AddSize(documents.size());
  for (std::string_view document : documents) fnv.AddField(document);
  return fnv.hash();
}

}  // namespace perfbench
