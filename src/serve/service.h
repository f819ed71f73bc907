// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// ExtractionService: the socket-free core of the extraction daemon. It
// owns the serving ExtractionContext (rebuilt atomically on hot reload),
// the admission gate, and the HTTP endpoint handlers — everything
// tools/webrbd_serve.cc does except listen on a port, so the full request
// surface is unit-testable without a socket in sight (serve/server.h adds
// the transport).
//
// Endpoints (docs/serving.md is the user-facing contract):
//   POST /extract         body = raw HTML, response = extraction JSON.
//                         Query params tighten per-request DocumentLimits,
//                         clamped to the server's configured ceilings:
//                         max-doc-bytes, max-tokens, max-depth.
//   POST /extract-batch   body = NDJSON, one {"html": "..."} per line;
//                         response = NDJSON, one result object per line.
//   GET  /metrics         Prometheus rendering of the global registry.
//   GET  /healthz         200 "ok" while serving, 503 "draining" after
//                         BeginDrain().
//   POST /reload-ontology body = new ontology DSL (empty body re-reads
//                         the configured source). The context is rebuilt
//                         off to the side and swapped in behind a
//                         shared_ptr: in-flight requests finish on the old
//                         context, new requests see the new one, and a
//                         rebuild failure keeps the old context serving.
//
// Hot-reload cache coherence: every rebuild bumps a generation counter
// that feeds ContextOptions::reload_generation (and so the template-cache
// fingerprint salt), and the service's private TemplateCache is cleared —
// a reloaded recognizer can never replay a boundary memoized under its
// predecessor, even when the DSL text is unchanged.
//
// Admission control: at most `max_inflight` requests may hold extraction
// slots; the rest are turned away immediately with 503 + Retry-After
// (load-shedding beats queueing: the caller's retry policy knows more
// about its deadline than this process does).

#ifndef WEBRBD_SERVE_SERVICE_H_
#define WEBRBD_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "db/catalog.h"
#include "extract/extraction_context.h"
#include "extract/template_cache.h"
#include "ontology/model.h"
#include "robust/limits.h"
#include "serve/http.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace webrbd {
namespace serve {

/// Service configuration, fixed at Create() time.
struct ServiceOptions {
  /// Extraction configuration shared by every request. `template_cache`
  /// and `reload_generation` are managed by the service itself (it owns a
  /// private cache so reload invalidation cannot disturb other tenants of
  /// the process-wide cache); caller-set values for those two fields are
  /// ignored.
  ContextOptions context;

  /// Ceilings for per-request DocumentLimits overrides: a query parameter
  /// may tighten a cap below these but never exceed them (0 keeps the
  /// 0-means-unlimited convention of robust::DocumentLimits).
  robust::DocumentLimits ceilings = robust::DocumentLimits::Production();

  /// Maximum concurrently admitted extraction requests; 0 picks a default
  /// of 2x the hardware concurrency. Excess requests get 503.
  int max_inflight = 0;

  /// Value of the Retry-After header on 503 responses, in seconds.
  int retry_after_seconds = 1;

  /// Re-reads the ontology DSL for an empty-body /reload-ontology (the
  /// daemon wires this to its --ontology file). Unset means an empty-body
  /// reload recompiles the currently served DSL.
  std::function<Result<std::string>()> reload_source;

  /// Test-only: runs while the request holds an admission slot, before
  /// extraction. Lets tests hold slots open to exercise the 503 path
  /// deterministically. Leave empty in production.
  std::function<void()> extract_hook;

  /// Optional ingest tap: every record extracted by /extract and
  /// /extract-batch is additionally delivered to this sink (the daemon's
  /// --store flag wires a StoreSink to a persistent RecordStore here).
  /// Borrowed, must outlive the service, and must be internally
  /// synchronized — requests on different transport threads share it.
  /// An ingest failure fails the request that hit it.
  RecordSink* ingest_sink = nullptr;
};

/// Renders the response body /extract produces for a successful
/// extraction: the outcome plus the catalog its CatalogSink materialized.
/// Exposed so tests can assert the served bytes are identical to an
/// in-process ExtractDocumentInto of the same document.
std::string RenderExtractionJson(const ExtractionOutcome& result,
                                 const db::Catalog& catalog);

/// The daemon's request brain. Thread-safe: Handle() may be called from
/// any number of transport threads concurrently.
class ExtractionService {
 private:
  /// Passkey: keeps the public constructor (which std::make_unique needs)
  /// callable only from Create().
  struct Passkey {};

 public:
  /// Parses `dsl`, compiles the serving context, and returns the ready
  /// service. Fails when the DSL does not parse or its rules do not
  /// compile.
  [[nodiscard]] static Result<std::unique_ptr<ExtractionService>> Create(
      std::string dsl, ServiceOptions options = {});

  /// Use Create(); public only for make_unique (see Passkey).
  ExtractionService(Passkey, ServiceOptions options);

  /// Routes one parsed request to its endpoint handler and returns the
  /// response. Never throws; unexpected handler exceptions become 500s in
  /// the transport layer above.
  HttpResponse Handle(const HttpRequest& request);

  /// Enters drain mode: /healthz turns 503 and new extraction requests
  /// are rejected, while requests already admitted run to completion.
  /// Idempotent.
  void BeginDrain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Currently admitted extraction requests (for tests and the drain
  /// loop).
  int inflight() const { return inflight_.load(std::memory_order_acquire); }

  /// The resolved admission limit.
  int max_inflight() const { return max_inflight_; }

  /// Generation of the currently served context: 0 at startup,
  /// incremented by every successful reload.
  uint64_t generation() const;

  /// Template salt of the currently served context (test hook for the
  /// reload-invalidation contract).
  uint64_t template_salt() const;

 private:
  /// One immutable serving epoch: the DSL it was built from, the parsed
  /// ontology, and the context compiled against it. The context borrows
  /// `ontology`, so the whole epoch lives behind one shared_ptr and is
  /// retired only when the last in-flight request drops its reference.
  struct ServingState {
    std::string dsl;
    Ontology ontology;
    std::optional<ExtractionContext> context;
    uint64_t generation = 0;
  };

  /// Builds a serving epoch from `dsl` (parse + compile), stamping
  /// `generation` into the context's template salt.
  [[nodiscard]] Result<std::shared_ptr<const ServingState>> BuildState(
      std::string dsl, uint64_t generation);

  std::shared_ptr<const ServingState> state() const WEBRBD_EXCLUDES(mu_);

  HttpResponse HandleExtract(const HttpRequest& request);
  HttpResponse HandleExtractBatch(const HttpRequest& request);
  HttpResponse HandleMetrics() const;
  HttpResponse HandleHealthz() const;
  HttpResponse HandleReload(const HttpRequest& request);

  /// Resolves the ?max-doc-bytes/&max-tokens/&max-depth overrides against
  /// the configured ceilings. Unknown or malformed parameters fail with
  /// kInvalidArgument (400).
  [[nodiscard]] Result<robust::DocumentLimits> ResolveLimits(
      std::string_view query) const;

  ServiceOptions options_;
  int max_inflight_ = 0;

  /// Declared before state_: the serving contexts hold a pointer to this
  /// cache, so it must outlive every epoch.
  TemplateCache template_cache_;

  mutable Mutex mu_;
  std::shared_ptr<const ServingState> state_ WEBRBD_GUARDED_BY(mu_);

  std::atomic<int> inflight_{0};
  std::atomic<bool> draining_{false};

  /// Monotonic reload epoch source; racing reloads draw distinct
  /// generations (and so distinct template salts).
  std::atomic<uint64_t> reload_counter_{0};
};

}  // namespace serve
}  // namespace webrbd

#endif  // WEBRBD_SERVE_SERVICE_H_
