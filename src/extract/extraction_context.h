// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The unified extraction API. An ExtractionContext is built ONCE per
// (ontology, options) pair — compiling the ontology's matching rules
// through a RecognizerCache at construction — and is then shared, const
// and thread-safe, by every document and corpus extraction:
//
//   auto context = ExtractionContext::Create(ontology);
//   CatalogSink sink(context->instance_generator());        // or StoreSink
//   auto result  = context->ExtractDocumentInto(html, sink);   // one page
//   auto batch   = context->ExtractCorpusInto(corpus, sink,
//                                             {.num_threads = 8});
//
// Extraction and output are decoupled: the pipeline delivers populated
// records through a RecordSink (extract/record_sink.h) — an in-memory
// catalog, a persistent page store (store/record_store.h), a test
// buffer — and returns per-document diagnostics (ExtractionOutcome).
// Corpus delivery is deterministic: records reach the sink grouped by
// document in input order regardless of worker-thread count. A caller
// that wants the populated database per document uses a CatalogSink and
// takes each document's catalog with TakeCatalog(document_index).
//
// The context also owns the estimator wiring that used to be a trap:
// DiscoveryOptions carries no record-count estimator (see
// core/discovery.h's StandaloneDiscoveryOptions); the integrated flow
// always derives OM's estimate from the Data-Record Table, as the paper
// specifies, so a caller-supplied estimator can no longer be silently
// overwritten — it is unrepresentable here.
//
// Memory: every per-document tag tree is bump-allocated from a
// DocumentArena (html/arena.h). ExtractDocumentInto uses a private arena
// by default; the arena-taking overload and ExtractCorpusInto reuse ONE
// arena per worker across a whole chunk of documents (Reset() between
// documents retains the blocks and the tag-name intern table), which is
// where the batch engine's warm-allocator throughput comes from.

#ifndef WEBRBD_EXTRACT_EXTRACTION_CONTEXT_H_
#define WEBRBD_EXTRACT_EXTRACTION_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/discovery.h"
#include "extract/data_record_table.h"
#include "extract/recognizer.h"
#include "extract/recognizer_cache.h"
#include "extract/template_cache.h"
#include "html/arena.h"
#include "ontology/model.h"
#include "util/result.h"

namespace webrbd {

class DatabaseInstanceGenerator;
class RecordSink;

/// When extractions through a context may serve record boundaries from a
/// TemplateCache (extract/template_cache.h).
enum class TemplateMemoization {
  /// Batch runs (ExtractCorpusInto) use the cache; standalone
  /// ExtractDocumentInto calls do not. Batch is where templates repeat and
  /// the cache pays; a lone document gets the full five-heuristic
  /// treatment.
  kAuto,
  /// Every extraction consults the cache, including single documents.
  kAlways,
  /// No extraction touches the cache.
  kNever,
};

/// Per-document diagnostics of a sink-based extraction: everything the
/// integrated pipeline produces BESIDES the records themselves, which go
/// to the RecordSink.
struct ExtractionOutcome {
  /// The consensus separator.
  std::string separator;

  /// Full discovery diagnostics (rankings, certainties).
  DiscoveryResult discovery;

  /// The Data-Record Table over the record region, positioned in DOCUMENT
  /// byte offsets.
  DataRecordTable table;

  /// The table partitioned at the separator's document positions; entry i
  /// corresponds to record i (the preamble partition is already dropped).
  std::vector<DataRecordTable> partitions;

  /// Records delivered to the sink for this document (one per partition).
  size_t records_written = 0;
};

/// Per-context configuration, fixed at Create() time and shared by every
/// extraction made through the context.
struct ContextOptions {
  /// Discovery knobs (heuristics, certainty table, candidate thresholds)
  /// plus the per-document resource caps (discovery.limits, a
  /// robust::DocumentLimits — these also bound the document arena).
  DiscoveryOptions discovery;

  /// Recognizer cache to compile/fetch through; nullptr uses the
  /// process-wide GlobalRecognizerCache().
  RecognizerCache* cache = nullptr;

  /// Template-memoization policy (see TemplateMemoization). The default
  /// kAuto turns the boundary cache on for batch runs only.
  TemplateMemoization template_memoization = TemplateMemoization::kAuto;

  /// Boundary cache to memoize through; nullptr uses the process-wide
  /// GlobalTemplateCache(). The context's fingerprint salt covers the
  /// ontology and every discovery knob, so contexts with different
  /// configurations safely share one cache.
  TemplateCache* template_cache = nullptr;

  /// Hot-reload epoch, mixed into the template-fingerprint salt. The
  /// ontology fingerprint alone cannot distinguish "same DSL, recompiled
  /// after a reload" from "same long-lived context", so a server that
  /// rebuilds its context on /reload-ontology MUST bump this per reload (see
  /// serve/service.h): otherwise a reloaded context could replay
  /// BoundaryArtifacts memoized under the pre-reload recognizer. Leave 0
  /// everywhere else.
  uint64_t reload_generation = 0;
};

/// Per-run knobs of ExtractCorpusInto (the context itself carries everything
/// per-document).
struct BatchRunOptions {
  /// Worker threads. 0 means one per hardware thread; 1 runs inline on the
  /// calling thread with no pool at all.
  int num_threads = 0;

  /// Documents per pool task. 0 picks a chunk size that gives each worker
  /// several tasks (for load balance) while amortizing queue traffic on
  /// large corpora. Chunking also keeps one worker's documents
  /// consecutive, so the worker's DocumentArena stays warm (blocks and
  /// intern table reused via Reset()) across a run of documents instead of
  /// ping-ponging between threads.
  size_t chunk_size = 0;

  /// Called with the document index just before each document is
  /// processed, on the processing thread. An exception it throws is
  /// handled exactly like a failing extraction task (the affected
  /// documents get Status::Internal results). Used by tests for fault
  /// injection and by embedders for progress tracing; leave empty for no
  /// overhead.
  std::function<void(size_t)> document_hook;
};

/// One pipeline stage's latency summary for a single batch run.
struct StageLatencySummary {
  std::string name;          ///< short stage name, e.g. "lex", "recognize"
  std::string metric;        ///< registry histogram name
  uint64_t count = 0;        ///< spans recorded during this run
  double total_seconds = 0;  ///< summed span time (across all workers)
  double p50_seconds = 0;
  double p95_seconds = 0;
  double p99_seconds = 0;
};

/// Corpus-level throughput and failure accounting for one batch run.
struct CorpusStats {
  size_t documents = 0;      ///< corpus size
  size_t succeeded = 0;      ///< documents with an OK result
  size_t failed = 0;         ///< documents with a non-OK result
  size_t total_bytes = 0;    ///< summed HTML sizes
  double wall_seconds = 0;   ///< end-to-end wall time of the batch
  double docs_per_second = 0;
  double bytes_per_second = 0;
  int threads_used = 1;      ///< resolved worker count

  /// Failure counts keyed by StatusCodeName (e.g. "ParseError" -> 3).
  std::map<std::string, size_t> failures_by_code;

  /// Per-stage latency deltas for this run, in pipeline order. Filled only
  /// when obs::MetricsEnabled(); empty otherwise. Stage totals can exceed
  /// wall_seconds on multi-thread runs (they sum across workers). The
  /// "candidates" stage records one span per document that misses the
  /// template cache.
  std::vector<StageLatencySummary> stage_latencies;

  /// Worker busy fraction of the pool over the batch window (0 when
  /// metrics are disabled or the batch ran inline without a pool).
  double pool_utilization = 0;

  /// Human-readable multi-line summary (the CLI's `batch` output).
  std::string ToString() const;

  /// Machine-readable one-object JSON rendering of the same numbers,
  /// including the per-stage latency table.
  std::string ToJson() const;
};

/// Everything a sink-based batch run produces.
struct BatchOutcome {
  /// documents[i] is the per-document outcome for corpus[i], input order.
  std::vector<Result<ExtractionOutcome>> documents;

  /// Records actually delivered to the sink (failed documents deliver
  /// none).
  uint64_t records_delivered = 0;

  CorpusStats stats;
};

/// An immutable, thread-safe extraction engine for one ontology.
///
/// Lifetime: the context borrows `ontology` (and, via
/// FromCompiledRecognizer, the recognizer); both must outlive it. The
/// compiled recognizer obtained through Create() is shared-owned and keeps
/// itself alive. Copying a context is cheap (it copies options and bumps
/// the recognizer refcount).
class ExtractionContext {
 public:
  /// Compiles (or fetches from the cache in `options.cache`) the
  /// recognizer for `ontology` and returns a ready context. Fails only
  /// when the ontology's matching rules do not compile.
  [[nodiscard]] static Result<ExtractionContext> Create(
      const Ontology& ontology, ContextOptions options = {});

  /// Wraps an already-compiled `recognizer` (which must have been created
  /// from `ontology` or a structurally identical one) without touching any
  /// cache. The recognizer is borrowed, not owned.
  [[nodiscard]] static ExtractionContext FromCompiledRecognizer(
      const Ontology& ontology, const Recognizer& recognizer,
      ContextOptions options = {});

  /// Runs the paper's integrated flow on one document: recognize once over
  /// the record region's text, estimate the record count from the
  /// Data-Record Table, discover the separator, partition, and deliver one
  /// populated record per partition to `sink` (document_index 0).
  /// Thread-safe: any number of threads may call this concurrently on one
  /// context, each with its own sink (or a shared internally-synchronized
  /// one). The sink's Flush is NOT called — single-document callers own
  /// their durability points.
  [[nodiscard]] Result<ExtractionOutcome> ExtractDocumentInto(
      std::string_view html, RecordSink& sink) const;

  /// Same, but builds the document's tag tree out of a caller-owned
  /// `arena` so repeated calls reuse its blocks and intern table. The
  /// caller must Reset() the arena between documents and must not share
  /// one arena across concurrent calls.
  [[nodiscard]] Result<ExtractionOutcome> ExtractDocumentInto(
      std::string_view html, DocumentArena& arena, RecordSink& sink) const;

  /// Runs the integrated flow over every document in `corpus`, fanning out
  /// across a thread pool per `run`, and delivers every successful
  /// document's records to `sink`. Deterministic and thread-count
  /// independent: documents[i] is exactly what a standalone extraction of
  /// corpus[i] would produce, and the sink sees records grouped by
  /// document in input order (workers stage records in memory; delivery
  /// happens on the calling thread). Per-document errors land in their
  /// outcome slots and never abort the corpus; a sink Write/Flush error
  /// DOES abort (the sink's backend is gone), failing the whole call.
  /// Flush is called once after the last record. The string data behind
  /// `corpus` must outlive the call.
  [[nodiscard]] Result<BatchOutcome> ExtractCorpusInto(
      const std::vector<std::string_view>& corpus, RecordSink& sink,
      const BatchRunOptions& run = {}) const;

  /// Convenience overload for owned-string corpora.
  [[nodiscard]] Result<BatchOutcome> ExtractCorpusInto(
      const std::vector<std::string>& corpus, RecordSink& sink,
      const BatchRunOptions& run = {}) const;

  const Ontology& ontology() const { return *ontology_; }
  const Recognizer& recognizer() const { return *recognizer_; }
  const ContextOptions& options() const { return options_; }

  /// The instance generator compiled at construction — what a CatalogSink
  /// needs to materialize this context's records as catalogs. Null only
  /// when the ontology's value patterns failed to compile (every
  /// extraction through such a context fails per-document).
  std::shared_ptr<const DatabaseInstanceGenerator> instance_generator() const {
    return generator_;
  }

  /// The fingerprint salt this context stamps into every page fingerprint:
  /// a hash of the ontology and all discovery knobs. Exposed for tests
  /// that pre-populate a TemplateCache out of band.
  uint64_t template_salt() const { return template_salt_; }

 private:
  ExtractionContext(const Ontology* ontology,
                    std::shared_ptr<const Recognizer> recognizer,
                    ContextOptions options);

  /// The shared per-document flow behind every public extraction entry;
  /// `use_cache` resolves the context's TemplateMemoization policy for
  /// this call site, `document_index` is stamped into each delivered
  /// record.
  [[nodiscard]] Result<ExtractionOutcome> ExtractDocumentImpl(
      std::string_view html, DocumentArena& arena, bool use_cache,
      RecordSink& sink, uint32_t document_index) const;

  const Ontology* ontology_;
  std::shared_ptr<const Recognizer> recognizer_;
  ContextOptions options_;
  uint64_t template_salt_ = 0;

  /// Instance generator built once at construction (on the context's own
  /// recognizer when the context co-owns it) and shared by every document
  /// (it is immutable after Create). Null only when the
  /// ontology's patterns fail to compile — ExtractDocumentImpl then
  /// reproduces the compile error per document.
  std::shared_ptr<const DatabaseInstanceGenerator> generator_;
};

}  // namespace webrbd

#endif  // WEBRBD_EXTRACT_EXTRACTION_CONTEXT_H_
