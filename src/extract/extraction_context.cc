// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/extraction_context.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <future>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "core/boundary_artifact.h"
#include "extract/db_instance_generator.h"
#include "extract/record_sink.h"
#include "html/text_index.h"
#include "html/tree_builder.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "util/fnv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace webrbd {

namespace {

// The paper's O(d) record-count estimate: one scan of the Data-Record
// Table, counting each record-identifying field's indications (keyword
// entries for keyword-bearing fields, constants otherwise) and averaging.
std::optional<double> EstimateFromTable(const Ontology& ontology,
                                        const DataRecordTable& table) {
  const std::vector<const ObjectSet*> fields =
      ontology.RecordIdentifyingFields();
  if (fields.size() < 3) return std::nullopt;
  double total = 0.0;
  for (const ObjectSet* field : fields) {
    total += static_cast<double>(
        field->frame.HasKeywords()
            ? table.CountFor(field->name, MatchKind::kKeyword)
            : table.CountFor(field->name, MatchKind::kConstant));
  }
  return total / static_cast<double>(fields.size());
}

// The template-cache fingerprint salt: everything a boundary decision
// depends on BESIDES page structure. Two contexts produce colliding page
// fingerprints only when the same tree shape would get the same separator
// through the same ontology, heuristics, and knobs — which is exactly when
// sharing an entry is correct. Doubles are hashed by bit pattern; the
// knobs are configuration constants, not computed floats, so bitwise
// equality is the right notion.
uint64_t ComputeTemplateSalt(const Ontology& ontology,
                             const ContextOptions& options) {
  const DiscoveryOptions& discovery = options.discovery;
  FnvHasher fnv;
  fnv.AddU64(OntologyFingerprint(ontology));
  // The reload epoch keeps a hot-reloaded context from replaying entries
  // memoized under the previous recognizer even when the DSL content (and
  // so the ontology fingerprint) is unchanged.
  fnv.AddU64(options.reload_generation);
  fnv.AddField(discovery.heuristics);
  for (const std::string& heuristic : discovery.certainty.Heuristics()) {
    fnv.AddField(heuristic);
    for (int rank = 1; rank <= CertaintyFactorTable::kDepth; ++rank) {
      fnv.AddU64(
          std::bit_cast<uint64_t>(discovery.certainty.Factor(heuristic, rank)));
    }
  }
  fnv.AddU64(std::bit_cast<uint64_t>(
      discovery.candidate_options.irrelevance_threshold));
  fnv.AddSize(discovery.it_separator_list.size());
  for (const std::string& separator : discovery.it_separator_list) {
    fnv.AddField(separator);
  }
  fnv.AddU64(std::bit_cast<uint64_t>(discovery.rp_pair_floor));
  fnv.AddSize(discovery.sd_normalize ? 1 : 0);
  return fnv.hash();
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// Auto chunk size: aim for ~4 tasks per worker so stragglers rebalance,
// but never less than 1 document per task.
size_t ResolveChunkSize(size_t requested, size_t corpus_size, int threads) {
  if (requested > 0) return requested;
  const size_t tasks = static_cast<size_t>(threads) * 4;
  return std::max<size_t>(1, corpus_size / std::max<size_t>(1, tasks));
}

// Human-scale latency rendering: 12.3us / 4.56ms / 1.23s.
std::string FormatSeconds(double seconds) {
  if (seconds < 1e-3) return FormatDouble(seconds * 1e6, 1) + "us";
  if (seconds < 1.0) return FormatDouble(seconds * 1e3, 2) + "ms";
  return FormatDouble(seconds, 3) + "s";
}

std::string PadRight(const std::string& s, size_t width) {
  return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

std::string PadLeft(const std::string& s, size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

// Collects the per-stage latency deltas of one batch run out of the global
// registry snapshots taken around it.
std::vector<StageLatencySummary> StageDeltas(
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after) {
  std::vector<StageLatencySummary> stages;
  for (const obs::StageName& stage : obs::PipelineStageNames()) {
    const obs::HistogramSnapshot* h_after = after.FindHistogram(stage.metric);
    if (h_after == nullptr) continue;
    obs::HistogramSnapshot delta = *h_after;
    if (const obs::HistogramSnapshot* h_before =
            before.FindHistogram(stage.metric)) {
      delta = obs::SubtractHistogram(*h_after, *h_before);
    }
    StageLatencySummary summary;
    summary.name = std::string(stage.short_name);
    summary.metric = std::string(stage.metric);
    summary.count = delta.count;
    summary.total_seconds = delta.sum_seconds;
    summary.p50_seconds = delta.Quantile(0.50);
    summary.p95_seconds = delta.Quantile(0.95);
    summary.p99_seconds = delta.Quantile(0.99);
    stages.push_back(std::move(summary));
  }
  return stages;
}

}  // namespace

std::string CorpusStats::ToString() const {
  // Built with the project string formatter (util/string_util.h) — the
  // previous fixed-size snprintf buffers silently truncated long
  // failure-code rows.
  std::string out;
  out += "documents      " + std::to_string(documents) + " (" +
         std::to_string(succeeded) + " ok, " + std::to_string(failed) +
         " failed)\n";
  out += "bytes          " + std::to_string(total_bytes) + "\n";
  out += "threads        " + std::to_string(threads_used) + "\n";
  out += "wall time      " + FormatDouble(wall_seconds, 3) + " s\n";
  out += "throughput     " + FormatDouble(docs_per_second, 1) + " docs/s, " +
         FormatDouble(bytes_per_second / 1e6, 2) + " MB/s\n";
  for (const auto& [code, count] : failures_by_code) {
    out += "failures       " + code + ": " + std::to_string(count) + "\n";
  }
  if (pool_utilization > 0) {
    out += "pool util      " + FormatPercent(pool_utilization, 1) + "\n";
  }
  if (!stage_latencies.empty()) {
    out += "stage latency  (spans, total across workers, p50/p95/p99)\n";
    for (const StageLatencySummary& stage : stage_latencies) {
      out += "  " + PadRight(stage.name, 14) +
             PadLeft(std::to_string(stage.count), 8) + "  " +
             PadLeft(FormatSeconds(stage.total_seconds), 9) + "  p50 " +
             PadLeft(FormatSeconds(stage.p50_seconds), 9) + "  p95 " +
             PadLeft(FormatSeconds(stage.p95_seconds), 9) + "  p99 " +
             PadLeft(FormatSeconds(stage.p99_seconds), 9) + "\n";
    }
  }
  return out;
}

std::string CorpusStats::ToJson() const {
  std::string out = "{";
  out += "\"documents\": " + std::to_string(documents);
  out += ", \"succeeded\": " + std::to_string(succeeded);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"total_bytes\": " + std::to_string(total_bytes);
  out += ", \"wall_seconds\": " + FormatDouble(wall_seconds, 6);
  out += ", \"docs_per_second\": " + FormatDouble(docs_per_second, 2);
  out += ", \"bytes_per_second\": " + FormatDouble(bytes_per_second, 2);
  out += ", \"threads_used\": " + std::to_string(threads_used);
  out += ", \"pool_utilization\": " + FormatDouble(pool_utilization, 4);
  out += ", \"failures_by_code\": {";
  bool first = true;
  for (const auto& [code, count] : failures_by_code) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + code + "\": " + std::to_string(count);
  }
  out += "}, \"stage_latencies\": [";
  for (size_t i = 0; i < stage_latencies.size(); ++i) {
    const StageLatencySummary& stage = stage_latencies[i];
    if (i > 0) out += ", ";
    out += "{\"stage\": \"" + stage.name + "\"";
    out += ", \"metric\": \"" + stage.metric + "\"";
    out += ", \"count\": " + std::to_string(stage.count);
    out += ", \"total_seconds\": " + FormatDouble(stage.total_seconds, 6);
    out += ", \"p50_seconds\": " + FormatDouble(stage.p50_seconds, 9);
    out += ", \"p95_seconds\": " + FormatDouble(stage.p95_seconds, 9);
    out += ", \"p99_seconds\": " + FormatDouble(stage.p99_seconds, 9) + "}";
  }
  out += "]}";
  return out;
}

ExtractionContext::ExtractionContext(
    const Ontology* ontology, std::shared_ptr<const Recognizer> recognizer,
    ContextOptions options)
    : ontology_(ontology),
      recognizer_(std::move(recognizer)),
      options_(std::move(options)),
      template_salt_(ComputeTemplateSalt(*ontology_, options_)) {
  // Build the instance generator ONCE per context instead of once per
  // document. A context that co-owns its recognizer (Create) shares it
  // with the generator. A borrowed one (FromCompiledRecognizer: no control
  // block) may be freed by its owner before a generator handed out by
  // instance_generator() is, so that generator compiles its own; on a
  // compile failure the pointer stays null and the per-document fallback
  // in ExtractDocumentImpl surfaces the same error.
  if (recognizer_.use_count() > 0) {
    generator_ = std::make_shared<const DatabaseInstanceGenerator>(
        DatabaseInstanceGenerator::WithRecognizer(*ontology_, recognizer_));
    return;
  }
  auto generator = DatabaseInstanceGenerator::Create(*ontology_);
  if (generator.ok()) {
    generator_ = std::make_shared<const DatabaseInstanceGenerator>(
        std::move(generator).value());
  }
}

Result<ExtractionContext> ExtractionContext::Create(const Ontology& ontology,
                                                    ContextOptions options) {
  RecognizerCache& cache =
      options.cache != nullptr ? *options.cache : GlobalRecognizerCache();
  auto recognizer = cache.Get(ontology);
  if (!recognizer.ok()) return recognizer.status();
  return ExtractionContext(&ontology, std::move(recognizer).value(),
                           std::move(options));
}

ExtractionContext ExtractionContext::FromCompiledRecognizer(
    const Ontology& ontology, const Recognizer& recognizer,
    ContextOptions options) {
  // Aliasing shared_ptr with no control block: borrowed, never freed here.
  return ExtractionContext(
      &ontology,
      std::shared_ptr<const Recognizer>(std::shared_ptr<const Recognizer>(),
                                        &recognizer),
      std::move(options));
}

Result<ExtractionOutcome> ExtractionContext::ExtractDocumentInto(
    std::string_view html, RecordSink& sink) const {
  DocumentArena arena;
  return ExtractDocumentImpl(
      html, arena,
      options_.template_memoization == TemplateMemoization::kAlways, sink,
      /*document_index=*/0);
}

Result<ExtractionOutcome> ExtractionContext::ExtractDocumentInto(
    std::string_view html, DocumentArena& arena, RecordSink& sink) const {
  return ExtractDocumentImpl(
      html, arena,
      options_.template_memoization == TemplateMemoization::kAlways, sink,
      /*document_index=*/0);
}

Result<IntegratedResult> ExtractionContext::ExtractDocumentShim(
    std::string_view html, DocumentArena& arena) const {
  CatalogSink sink(generator_);
  auto outcome = ExtractDocumentInto(html, arena, sink);
  if (!outcome.ok()) return outcome.status();
  auto catalog = sink.TakeCatalog(0);
  if (!catalog.ok()) return catalog.status();
  IntegratedResult result;
  result.separator = std::move(outcome->separator);
  result.discovery = std::move(outcome->discovery);
  result.table = std::move(outcome->table);
  result.partitions = std::move(outcome->partitions);
  result.catalog = std::move(catalog).value();
  return result;
}

Result<IntegratedResult> ExtractionContext::ExtractDocument(
    std::string_view html) const {
  DocumentArena arena;
  return ExtractDocumentShim(html, arena);
}

Result<IntegratedResult> ExtractionContext::ExtractDocument(
    std::string_view html, DocumentArena& arena) const {
  return ExtractDocumentShim(html, arena);
}

Result<ExtractionOutcome> ExtractionContext::ExtractDocumentImpl(
    std::string_view html, DocumentArena& arena, bool use_cache,
    RecordSink& sink, uint32_t document_index) const {
  obs::ScopedTimer document_timer(obs::Stages().document);
  obs::Stages().documents->Increment();
  const DiscoveryOptions& base = options_.discovery;
  const bool has_rules = !recognizer_->rules().rules().empty();

  // Everything downstream of boundary discovery, shared by the memoized
  // fast path and the full flow: partition the table at the separator's
  // document positions (the leading partition is the page preamble),
  // assemble one record per partition, and deliver each to the sink. The
  // dbgen span covers all of it.
  auto finish = [this, &sink, document_index](
                    ExtractionOutcome result,
                    std::vector<size_t> cuts) -> Result<ExtractionOutcome> {
    obs::ScopedTimer dbgen_timer(obs::Stages().dbgen);
    if (cuts.empty()) {
      return Status::Internal("separator <" + result.separator +
                              "> has no occurrences in its own region");
    }
    std::vector<DataRecordTable> partitions = result.table.PartitionAt(cuts);
    partitions.erase(partitions.begin());  // preamble
    // A trailing separator (Figure 2's final <hr>) leaves an empty tail
    // partition; drop it, mirroring the record extractor's empty-chunk
    // rule.
    while (!partitions.empty() && partitions.back().empty()) {
      partitions.pop_back();
    }
    result.partitions = std::move(partitions);

    // One record per partition, through the generator compiled once at
    // context construction. The null fallback covers the one construction
    // path that cannot report a compile failure (FromCompiledRecognizer):
    // compiling here per document reproduces the error the caller would
    // have seen.
    const DatabaseInstanceGenerator* generator = generator_.get();
    std::optional<DatabaseInstanceGenerator> local;
    if (generator == nullptr) {
      auto compiled = DatabaseInstanceGenerator::Create(*ontology_);
      if (!compiled.ok()) return compiled.status();
      local.emplace(std::move(compiled).value());
      generator = &*local;
    }
    PopulatedRecord record;
    record.document_index = document_index;
    record.entity = generator->scheme().entity_table.table_name();
    for (size_t i = 0; i < result.partitions.size(); ++i) {
      record.record_index = static_cast<uint32_t>(i);
      record.fields = generator->FieldsFromTable(result.partitions[i]);
      Status written = sink.Write(record);
      if (!written.ok()) return written;
    }
    result.records_written = result.partitions.size();
    return result;
  };

  // Steps 1+2 only: the balanced token stream is enough to fingerprint
  // the page and, on a rule-less cache hit, to re-apply the memoized
  // boundary — Step 3 (node construction, the most expensive phase after
  // lexing) then never runs for that document.
  auto balanced = LexAndBalance(html, base.limits, arena);
  if (!balanced.ok()) return balanced.status();

  // Template memoization: fingerprint the page shape and try to serve the
  // boundary from the cache. A hit is only a hint — the artifact must
  // re-apply cleanly to THIS page (subtree path resolves step-by-name,
  // separator present among its children in plausible numbers), else we
  // record a fallback, evict the stale entry, and run the full rank. The
  // cache can therefore only change timing, never output (assuming pages
  // that share a template agree on their boundary, which is what sharing
  // a template means).
  TemplateCache* cache = nullptr;
  uint64_t fingerprint = 0;
  std::shared_ptr<const BoundaryArtifact> memoized;
  std::shared_ptr<const BoundaryArtifact> captured;
  if (use_cache) {
    cache = options_.template_cache != nullptr ? options_.template_cache
                                               : &GlobalTemplateCache();
    fingerprint = PageFingerprint(balanced->tokens, balanced->symbols,
                                  arena.interner(), template_salt_);
    memoized = cache->Lookup(fingerprint);
  }

  if (memoized != nullptr && !has_rules) {
    // Rule-less hit: re-apply on the stream. Success hands back the
    // separator's cut positions directly — identical to what the built
    // tree would yield — and the document completes without a single
    // TagNode being allocated. The table stays empty (no matching rules),
    // so partitioning needs nothing but the cuts.
    auto boundary = ReapplyBoundaryArtifact(*memoized, balanced->tokens,
                                            balanced->symbols,
                                            arena.interner());
    if (boundary.has_value()) {
      ExtractionOutcome result;
      result.discovery = memoized->discovery;
      result.separator = memoized->separator;
      return finish(std::move(result),
                    std::move(boundary->separator_positions));
    }
    cache->RecordFallback();
    cache->Erase(fingerprint);
    memoized = nullptr;
  }

  auto tree = BuildTagTreeFromBalanced(std::move(balanced).value(),
                                       base.limits, &arena);
  if (!tree.ok()) return tree.status();

  std::optional<ReappliedBoundary> reapplied;
  if (memoized != nullptr) {
    reapplied = ReapplyBoundaryArtifact(*memoized, *tree);
    if (!reapplied.has_value()) {
      cache->RecordFallback();
      cache->Erase(fingerprint);
      memoized = nullptr;
    }
  }

  // Locate the record region (Section 3). On a cache hit the memoized
  // subtree path already resolved it — the candidate analysis, the
  // highest-fan-out scan, the five heuristics, and the certainty
  // combination are skipped. Otherwise run the candidate analysis here,
  // first, because the recognizer pass runs over this region's text; the
  // discoverer then reuses it instead of running it again.
  const TagNode* region = nullptr;
  std::optional<CandidateAnalysis> analysis;
  if (reapplied.has_value()) {
    region = reapplied->subtree;
  } else {
    auto analyzed = ExtractCandidateTags(*tree, base.candidate_options);
    if (!analyzed.ok()) return analyzed.status();
    analysis.emplace(std::move(analyzed).value());
    region = analysis->subtree;
  }

  // One recognizer pass over the region's plain text, every entry
  // re-positioned into document byte offsets. An ontology that compiles
  // to zero matching rules (structure-only: boundary discovery without
  // entity extraction) yields an empty table no matter what the text
  // says, so the text materialization, the recognizer scan, and the DRT
  // reposition are all skipped — separator cut points then come straight
  // off the region's token span below.
  std::optional<TextIndex> index;
  ExtractionOutcome result;
  if (has_rules) {
    index.emplace(*tree, *region);
    DataRecordTable text_table = recognizer_->Recognize(index->text());

    // DRT build: reposition the text-relative entries into document byte
    // offsets, in place, and freeze them as this document's Data-Record
    // Table. Begins ascend, so one cursor walks the text segments once; an
    // end lies at or after its begin, so its walk starts from there.
    obs::ScopedTimer drt_timer(obs::Stages().drt);
    std::vector<DataRecordEntry> entries = std::move(text_table).TakeEntries();
    TextIndex::Cursor cursor(*index);
    for (DataRecordEntry& entry : entries) {
      entry.begin = cursor.ToDocumentOffset(entry.begin);
      TextIndex::Cursor end_cursor = cursor;
      entry.end = end_cursor.ToDocumentOffset(entry.end);
    }
    result.table = DataRecordTable(std::move(entries));
  }

  if (reapplied.has_value()) {
    // Served from the template cache: the diagnostics are the populating
    // page's (certainty factors describe the template, computed once);
    // the artifact is already detached from any tree.
    result.discovery = memoized->discovery;
    result.separator = memoized->separator;
  } else {
    // Discovery, with OM fed by the table-derived estimate (O(d)). The
    // estimator is constructed HERE, on a standalone options copy — plain
    // DiscoveryOptions cannot carry one, so no caller setting is ever
    // overwritten.
    StandaloneDiscoveryOptions discovery_options(base);
    discovery_options.estimator = std::make_shared<FixedRecordCountEstimator>(
        EstimateFromTable(*ontology_, result.table));
    RecordBoundaryDiscoverer discoverer(std::move(discovery_options));
    auto discovery = discoverer.Discover(*tree, std::move(*analysis));
    if (!discovery.ok()) return discovery.status();
    if (cache != nullptr) {
      // Captured now (the tree must still be alive), inserted only after
      // the document extracts end-to-end — a boundary that cannot drive a
      // successful extraction must not be memoized. The capture happens
      // once per template, off every hit's path.
      captured = std::make_shared<const BoundaryArtifact>(
          CaptureBoundaryArtifact(*tree, *region, discovery.value()));
    }
    result.discovery = std::move(discovery).value();
    // The tag tree dies with this function; the subtree pointer must not
    // escape (candidate tags and rankings remain valid by value).
    result.discovery.analysis.subtree = nullptr;
    result.separator = result.discovery.separator;
  }

  std::vector<size_t> cuts =
      index.has_value()
          ? index->SeparatorPositions(result.separator)
          : TextIndex::SeparatorPositionsInRegion(*tree, *region,
                                                  result.separator);
  auto finished = finish(std::move(result), std::move(cuts));
  if (!finished.ok()) return finished.status();
  if (captured != nullptr) cache->Put(fingerprint, std::move(captured));
  return finished;
}

Result<BatchOutcome> ExtractionContext::ExtractCorpusInto(
    const std::vector<std::string_view>& corpus, RecordSink& sink,
    const BatchRunOptions& run) const {
  if (corpus.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "corpus exceeds the 2^32-1 document-index space");
  }
  const int threads = ResolveThreads(run.num_threads);
  const bool metrics = obs::MetricsEnabled();
  obs::MetricsSnapshot before;
  if (metrics) before = obs::MetricsRegistry::Global().Snapshot();
  const auto start = std::chrono::steady_clock::now();

  // Per-document slots, written by exactly one task each and read only
  // after the owning future is waited on (the future's happens-before edge
  // publishes the slot to this thread). Records stage in per-document
  // buffers the same way: workers never touch the caller's sink, so
  // delivery order is input order regardless of thread count.
  std::vector<std::optional<Result<ExtractionOutcome>>> slots(corpus.size());
  std::vector<std::vector<PopulatedRecord>> staged(corpus.size());

  // Batch runs memoize boundaries by template unless the context says
  // never (TemplateMemoization::kAuto resolves to ON here — this is the
  // repeat-template workload the cache exists for).
  const bool use_cache =
      options_.template_memoization != TemplateMemoization::kNever;

  // One DocumentArena per chunk: a worker processes its chunk's documents
  // consecutively through ONE warm arena, Reset() between documents, so
  // block allocation and tag-name interning amortize across the chunk.
  auto process_range = [&](size_t begin, size_t end) {
    DocumentArena arena;
    for (size_t i = begin; i < end; ++i) {
      if (run.document_hook) run.document_hook(i);
      arena.Reset();
      BufferSink buffer;
      slots[i].emplace(ExtractDocumentImpl(corpus[i], arena, use_cache,
                                           buffer,
                                           static_cast<uint32_t>(i)));
      staged[i] = buffer.TakeRecords();
    }
  };

  // Converts a task exception into per-document results for the chunk's
  // documents that never got one, so the batch reports the failure instead
  // of dereferencing unengaged slots (or dying outright on one bad chunk).
  auto fail_unfilled = [&](size_t begin, size_t end, const std::string& why) {
    for (size_t i = begin; i < end; ++i) {
      if (!slots[i].has_value()) {
        slots[i].emplace(Status::Internal("batch task failed: " + why));
      }
    }
  };

  double pool_busy_seconds = 0;
  if (threads == 1 || corpus.size() <= 1) {
    // Inline fast path: no pool, no queue traffic — and one arena for the
    // whole corpus. A 1-thread batch is therefore exactly the
    // per-document loop plus the warm recognizer and allocator.
    try {
      process_range(0, corpus.size());
    } catch (const std::exception& e) {
      fail_unfilled(0, corpus.size(), e.what());
    } catch (...) {
      fail_unfilled(0, corpus.size(), "unknown exception");
    }
  } else {
    const size_t chunk =
        ResolveChunkSize(run.chunk_size, corpus.size(), threads);
    ThreadPool pool(threads);
    struct ChunkTask {
      size_t begin;
      size_t end;
      std::future<void> future;
    };
    std::vector<ChunkTask> tasks;
    tasks.reserve(corpus.size() / chunk + 1);
    for (size_t begin = 0; begin < corpus.size(); begin += chunk) {
      const size_t end = std::min(corpus.size(), begin + chunk);
      tasks.push_back(ChunkTask{
          begin, end, pool.Submit([&process_range, begin, end]() {
            process_range(begin, end);
          })});
    }
    // Wait on EVERY future before reading any slot: an early throwing
    // get() must not abandon the chunks still in flight (their tasks
    // would keep writing into `slots` after this frame died — UB), and a
    // throwing chunk must surface as per-document errors, not kill the
    // batch.
    for (ChunkTask& task : tasks) {
      try {
        task.future.get();
      } catch (const std::exception& e) {
        fail_unfilled(task.begin, task.end, e.what());
      } catch (...) {
        fail_unfilled(task.begin, task.end, "unknown exception");
      }
    }
    pool_busy_seconds = pool.busy_seconds();
  }
  // Belt and braces: no slot may be unengaged past this point.
  fail_unfilled(0, corpus.size(), "task produced no result");

  // Delivery: replay every successful document's staged records into the
  // caller's sink, in input order, on this thread. A sink failure aborts
  // the batch — the backend is gone, and reporting per-document success
  // over records that never landed would lie.
  BatchOutcome batch;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!(*slots[i]).ok()) continue;
    for (const PopulatedRecord& record : staged[i]) {
      Status written = sink.Write(record);
      if (!written.ok()) return written;
      ++batch.records_delivered;
    }
    staged[i].clear();
  }
  Status flushed = sink.Flush();
  if (!flushed.ok()) return flushed;

  const auto stop = std::chrono::steady_clock::now();

  batch.documents.reserve(corpus.size());
  batch.stats.documents = corpus.size();
  batch.stats.threads_used = threads;
  for (size_t i = 0; i < slots.size(); ++i) {
    batch.stats.total_bytes += corpus[i].size();
    Result<ExtractionOutcome>& result = *slots[i];
    if (result.ok()) {
      ++batch.stats.succeeded;
    } else {
      ++batch.stats.failed;
      ++batch.stats.failures_by_code[std::string(
          StatusCodeName(result.status().code()))];
    }
    batch.documents.push_back(std::move(result));
  }
  batch.stats.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  if (batch.stats.wall_seconds > 0) {
    batch.stats.docs_per_second =
        static_cast<double>(batch.stats.documents) / batch.stats.wall_seconds;
    batch.stats.bytes_per_second =
        static_cast<double>(batch.stats.total_bytes) /
        batch.stats.wall_seconds;
  }
  if (metrics) {
    batch.stats.stage_latencies =
        StageDeltas(before, obs::MetricsRegistry::Global().Snapshot());
    if (batch.stats.wall_seconds > 0 && threads > 1) {
      batch.stats.pool_utilization =
          pool_busy_seconds /
          (batch.stats.wall_seconds * static_cast<double>(threads));
    }
  }
  return batch;
}

Result<BatchOutcome> ExtractionContext::ExtractCorpusInto(
    const std::vector<std::string>& corpus, RecordSink& sink,
    const BatchRunOptions& run) const {
  std::vector<std::string_view> views;
  views.reserve(corpus.size());
  for (const std::string& document : corpus) views.emplace_back(document);
  return ExtractCorpusInto(views, sink, run);
}

Result<BatchResult> ExtractionContext::ExtractCorpus(
    const std::vector<std::string_view>& corpus,
    const BatchRunOptions& run) const {
  // Shim: the sink-based engine into per-document catalogs. CatalogSink
  // isolates insert errors per document (Write never fails the batch), so
  // a document whose records cannot materialize fails alone, exactly as
  // the pre-sink implementation did.
  CatalogSink sink(generator_);
  auto outcome = ExtractCorpusInto(corpus, sink, run);
  if (!outcome.ok()) return outcome.status();

  BatchResult batch;
  batch.stats = std::move(outcome->stats);
  batch.documents.reserve(outcome->documents.size());
  for (size_t i = 0; i < outcome->documents.size(); ++i) {
    Result<ExtractionOutcome>& doc = outcome->documents[i];
    if (!doc.ok()) {
      batch.documents.emplace_back(doc.status());
      continue;
    }
    auto catalog = sink.TakeCatalog(static_cast<uint32_t>(i));
    if (!catalog.ok()) {
      // Catalog materialization failed after a successful extraction:
      // re-book the document as failed so the stats match its result.
      --batch.stats.succeeded;
      ++batch.stats.failed;
      ++batch.stats.failures_by_code[std::string(
          StatusCodeName(catalog.status().code()))];
      batch.documents.emplace_back(catalog.status());
      continue;
    }
    IntegratedResult result;
    result.separator = std::move(doc->separator);
    result.discovery = std::move(doc->discovery);
    result.table = std::move(doc->table);
    result.partitions = std::move(doc->partitions);
    result.catalog = std::move(catalog).value();
    batch.documents.emplace_back(std::move(result));
  }
  return batch;
}

Result<BatchResult> ExtractionContext::ExtractCorpus(
    const std::vector<std::string>& corpus, const BatchRunOptions& run) const {
  std::vector<std::string_view> views;
  views.reserve(corpus.size());
  for (const std::string& document : corpus) views.emplace_back(document);
  return ExtractCorpus(views, run);
}

}  // namespace webrbd
