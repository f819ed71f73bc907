// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "serve/service.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "db/catalog.h"
#include "db/table.h"
#include "extract/record_sink.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "ontology/parser.h"
#include "serve/json_util.h"
#include "util/string_util.h"

namespace webrbd {
namespace serve {

namespace {

/// HTTP status for a failed extraction. The mapping is part of the API
/// contract (docs/serving.md): resource caps are the caller's document
/// being too big (413), parse/argument problems are the caller's fault
/// (400), and everything else is ours (500).
int HttpStatusForCode(Status::Code code) {
  switch (code) {
    case Status::Code::kResourceExhausted: return 413;
    case Status::Code::kParseError: return 400;
    case Status::Code::kInvalidArgument: return 400;
    case Status::Code::kNotFound: return 404;
    case Status::Code::kUnsupported: return 501;
    case Status::Code::kFailedPrecondition: return 409;
    default: return 500;
  }
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

std::string ErrorJson(const Status& status) {
  return std::string("{\"error\":{\"code\":") +
         JsonString(StatusCodeName(status.code())) +
         ",\"message\":" + JsonString(status.message()) + "}}";
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusForCode(status.code()), ErrorJson(status));
}

/// Strict non-negative integer parse for limit-override query params.
bool ParseSizeParam(std::string_view text, size_t* out) {
  if (text.empty()) return false;
  size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const size_t digit = static_cast<size_t>(c - '0');
    if (value > (static_cast<size_t>(-1) - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Applies the 0-means-unlimited clamp: the override may only tighten the
/// ceiling, never exceed or disable it.
size_t ClampToCeiling(size_t requested, size_t ceiling) {
  if (ceiling == 0) return requested;
  if (requested == 0 || requested > ceiling) return ceiling;
  return requested;
}

int ResolveMaxInflight(int requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::max(2, static_cast<int>(hardware) * 2);
}

/// RAII admission slot: releases on every exit path, keeping the inflight
/// gauge truthful even when a handler fails mid-way.
class AdmissionSlot {
 public:
  AdmissionSlot(std::atomic<int>* inflight, int max_inflight, bool draining) {
    if (draining) return;
    inflight_ = inflight;
    const int now = inflight_->fetch_add(1, std::memory_order_acq_rel) + 1;
    if (now > max_inflight) {
      inflight_->fetch_sub(1, std::memory_order_acq_rel);
      inflight_ = nullptr;
      return;
    }
    admitted_ = true;
    obs::Serve().inflight->Set(static_cast<double>(now));
  }

  ~AdmissionSlot() {
    if (!admitted_) return;
    const int now = inflight_->fetch_sub(1, std::memory_order_acq_rel) - 1;
    obs::Serve().inflight->Set(static_cast<double>(now));
  }

  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

  bool admitted() const { return admitted_; }

 private:
  std::atomic<int>* inflight_ = nullptr;
  bool admitted_ = false;
};

}  // namespace

std::string RenderExtractionJson(const ExtractionOutcome& result,
                                 const db::Catalog& catalog) {
  std::string out = "{\"separator\":" + JsonString(result.separator);
  out += ",\"records\":" + std::to_string(result.partitions.size());
  double certainty = 0.0;
  for (const CompoundRankedTag& ranked : result.discovery.compound_ranking) {
    if (ranked.tag == result.separator) {
      certainty = ranked.certainty;
      break;
    }
  }
  out += ",\"certainty\":" + FormatDouble(certainty, 6);
  out += ",\"tables\":{";
  bool first = true;
  for (const std::string& name : catalog.TableNames()) {
    const db::Table* table = catalog.GetTable(name);
    if (table == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + std::to_string(table->row_count());
  }
  out += "}}";
  return out;
}

Result<std::unique_ptr<ExtractionService>> ExtractionService::Create(
    std::string dsl, ServiceOptions options) {
  // Two-phase construction: the service object must exist before the
  // first epoch is built, because the epoch's context points at the
  // service-owned TemplateCache.
  auto service =
      std::make_unique<ExtractionService>(Passkey{}, std::move(options));
  auto state = service->BuildState(std::move(dsl), /*generation=*/0);
  if (!state.ok()) return state.status();
  {
    MutexLock lock(&service->mu_);
    service->state_ = std::move(state).value();
  }
  return service;
}

ExtractionService::ExtractionService(Passkey, ServiceOptions options)
    : options_(std::move(options)),
      max_inflight_(ResolveMaxInflight(options_.max_inflight)) {}

Result<std::shared_ptr<const ExtractionService::ServingState>>
ExtractionService::BuildState(std::string dsl, uint64_t generation) {
  auto state = std::make_shared<ServingState>();
  state->dsl = std::move(dsl);
  state->generation = generation;
  auto ontology = ParseOntology(state->dsl);
  if (!ontology.ok()) return ontology.status();
  state->ontology = std::move(ontology).value();
  ContextOptions context_options = options_.context;
  // The service manages these two fields (see ServiceOptions::context):
  // its private cache keeps reload invalidation local, and the generation
  // keeps a reloaded recognizer from replaying its predecessor's entries.
  context_options.template_cache = &template_cache_;
  context_options.reload_generation = generation;
  auto context =
      ExtractionContext::Create(state->ontology, std::move(context_options));
  if (!context.ok()) return context.status();
  state->context.emplace(std::move(context).value());
  return std::shared_ptr<const ServingState>(std::move(state));
}

std::shared_ptr<const ExtractionService::ServingState>
ExtractionService::state() const {
  MutexLock lock(&mu_);
  return state_;
}

void ExtractionService::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

uint64_t ExtractionService::generation() const { return state()->generation; }

uint64_t ExtractionService::template_salt() const {
  return state()->context->template_salt();
}

HttpResponse ExtractionService::Handle(const HttpRequest& request) {
  obs::Serve().requests->Increment();
  obs::ScopedTimer latency_timer(obs::Serve().request_latency);
  if (request.path == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD") {
      return JsonResponse(405, ErrorJson(Status::InvalidArgument(
                                   "use GET " + request.path)));
    }
    return HandleHealthz();
  }
  if (request.path == "/metrics") {
    if (request.method != "GET" && request.method != "HEAD") {
      return JsonResponse(405, ErrorJson(Status::InvalidArgument(
                                   "use GET " + request.path)));
    }
    return HandleMetrics();
  }
  if (request.path == "/extract" || request.path == "/extract-batch" ||
      request.path == "/reload-ontology") {
    if (request.method != "POST") {
      return JsonResponse(405, ErrorJson(Status::InvalidArgument(
                                   "use POST " + request.path)));
    }
    if (request.path == "/extract") return HandleExtract(request);
    if (request.path == "/extract-batch") return HandleExtractBatch(request);
    return HandleReload(request);
  }
  return JsonResponse(
      404, ErrorJson(Status::NotFound("no such endpoint: " + request.path)));
}

HttpResponse ExtractionService::HandleHealthz() const {
  HttpResponse response;
  if (draining()) {
    response.status = 503;
    response.body = "draining\n";
  } else {
    response.body = "ok\n";
  }
  return response;
}

HttpResponse ExtractionService::HandleMetrics() const {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = obs::MetricsRegistry::Global().Snapshot().ToPrometheus();
  return response;
}

Result<robust::DocumentLimits> ExtractionService::ResolveLimits(
    std::string_view query) const {
  robust::DocumentLimits limits = options_.context.discovery.limits;
  for (const QueryParam& param : ParseQuery(query)) {
    size_t value = 0;
    if (!ParseSizeParam(param.value, &value)) {
      return Status::InvalidArgument("query parameter '" + param.key +
                                     "' must be a non-negative integer, got "
                                     "'" + param.value + "'");
    }
    if (param.key == "max-doc-bytes") {
      limits.max_document_bytes =
          ClampToCeiling(value, options_.ceilings.max_document_bytes);
    } else if (param.key == "max-tokens") {
      limits.max_tokens = ClampToCeiling(value, options_.ceilings.max_tokens);
    } else if (param.key == "max-depth") {
      limits.max_tree_depth =
          ClampToCeiling(value, options_.ceilings.max_tree_depth);
    } else {
      return Status::InvalidArgument("unknown query parameter '" + param.key +
                                     "'");
    }
  }
  return limits;
}

HttpResponse ExtractionService::HandleExtract(const HttpRequest& request) {
  auto limits = ResolveLimits(request.query);
  if (!limits.ok()) return ErrorResponse(limits.status());

  AdmissionSlot slot(&inflight_, max_inflight_, draining());
  if (!slot.admitted()) {
    obs::Serve().rejected->Increment();
    HttpResponse response = JsonResponse(
        503, ErrorJson(Status::ResourceExhausted(
                 draining() ? "server is draining"
                            : "admission limit of " +
                                  std::to_string(max_inflight_) +
                                  " in-flight requests reached")));
    response.extra_headers.push_back(
        {"Retry-After", std::to_string(options_.retry_after_seconds)});
    return response;
  }
  if (options_.extract_hook) options_.extract_hook();
  if (request.body.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("request body must be the HTML document"));
  }

  const std::shared_ptr<const ServingState> serving = state();
  const robust::DocumentLimits& defaults =
      serving->context->options().discovery.limits;
  const bool overridden =
      limits->max_document_bytes != defaults.max_document_bytes ||
      limits->max_tokens != defaults.max_tokens ||
      limits->max_tree_depth != defaults.max_tree_depth;
  Result<ExtractionOutcome> result = Status::Internal("unreached");
  std::optional<CatalogSink> catalog_sink;
  if (overridden) {
    // Per-request limits need a context carrying them. The recognizer —
    // the expensive compiled artifact — is shared from the serving epoch;
    // only the wrapper is rebuilt, and only for requests that override.
    ContextOptions override_options = serving->context->options();
    override_options.discovery.limits = std::move(limits).value();
    ExtractionContext override_context =
        ExtractionContext::FromCompiledRecognizer(serving->ontology,
                                                  serving->context->recognizer(),
                                                  std::move(override_options));
    catalog_sink.emplace(override_context.instance_generator());
    if (options_.ingest_sink != nullptr) {
      TeeSink tee({&*catalog_sink, options_.ingest_sink});
      result = override_context.ExtractDocumentInto(request.body, tee);
    } else {
      result = override_context.ExtractDocumentInto(request.body,
                                                    *catalog_sink);
    }
  } else {
    catalog_sink.emplace(serving->context->instance_generator());
    if (options_.ingest_sink != nullptr) {
      TeeSink tee({&*catalog_sink, options_.ingest_sink});
      result = serving->context->ExtractDocumentInto(request.body, tee);
    } else {
      result =
          serving->context->ExtractDocumentInto(request.body, *catalog_sink);
    }
  }
  if (!result.ok()) return ErrorResponse(result.status());
  auto catalog = catalog_sink->TakeCatalog();
  if (!catalog.ok()) return ErrorResponse(catalog.status());
  return JsonResponse(200, RenderExtractionJson(*result, *catalog));
}

HttpResponse ExtractionService::HandleExtractBatch(const HttpRequest& request) {
  AdmissionSlot slot(&inflight_, max_inflight_, draining());
  if (!slot.admitted()) {
    obs::Serve().rejected->Increment();
    HttpResponse response = JsonResponse(
        503, ErrorJson(Status::ResourceExhausted(
                 draining() ? "server is draining"
                            : "admission limit of " +
                                  std::to_string(max_inflight_) +
                                  " in-flight requests reached")));
    response.extra_headers.push_back(
        {"Retry-After", std::to_string(options_.retry_after_seconds)});
    return response;
  }
  if (options_.extract_hook) options_.extract_hook();

  // Split the NDJSON body into lines (final newline optional) and decode
  // each line's "html" value. Decode failures keep their line's slot so
  // responses stay positional.
  std::vector<Result<std::string>> decoded;
  std::string_view body = request.body;
  size_t begin = 0;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    if (end == std::string_view::npos) end = body.size();
    std::string_view line = body.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) decoded.push_back(ParseNdjsonHtmlLine(line));
    begin = end + 1;
  }
  if (decoded.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "request body must hold NDJSON lines of {\"html\": \"...\"}"));
  }

  std::vector<std::string> corpus;
  std::vector<size_t> corpus_line;  // corpus index -> decoded index
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (decoded[i].ok()) {
      corpus.push_back(*decoded[i]);
      corpus_line.push_back(i);
    }
  }

  const std::shared_ptr<const ServingState> serving = state();
  std::vector<std::string> rendered(decoded.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i].ok()) rendered[i] = ErrorJson(decoded[i].status());
  }
  if (!corpus.empty()) {
    // The batch engine on one inline thread: the request already holds
    // exactly one admission slot, so its parallelism budget is one worker
    // — template memoization across the batch's documents still applies
    // (TemplateMemoization::kAuto resolves to ON for corpus runs).
    BatchRunOptions run;
    run.num_threads = 1;
    CatalogSink catalog_sink(serving->context->instance_generator());
    Result<BatchOutcome> batch = Status::Internal("unreached");
    if (options_.ingest_sink != nullptr) {
      TeeSink tee({&catalog_sink, options_.ingest_sink});
      batch = serving->context->ExtractCorpusInto(corpus, tee, run);
    } else {
      batch = serving->context->ExtractCorpusInto(corpus, catalog_sink, run);
    }
    if (!batch.ok()) return ErrorResponse(batch.status());
    for (size_t j = 0; j < batch->documents.size(); ++j) {
      const Result<ExtractionOutcome>& doc = batch->documents[j];
      if (!doc.ok()) {
        rendered[corpus_line[j]] = ErrorJson(doc.status());
        continue;
      }
      auto catalog = catalog_sink.TakeCatalog(static_cast<uint32_t>(j));
      rendered[corpus_line[j]] =
          catalog.ok()
              ? "{\"result\":" + RenderExtractionJson(*doc, *catalog) + "}"
              : ErrorJson(catalog.status());
    }
  }

  std::string out;
  for (size_t i = 0; i < rendered.size(); ++i) {
    out += "{\"index\":" + std::to_string(i) + ",";
    out += rendered[i].substr(1);  // merge into the index-carrying object
    out += "\n";
  }
  HttpResponse response;
  response.content_type = "application/x-ndjson";
  response.body = std::move(out);
  return response;
}

HttpResponse ExtractionService::HandleReload(const HttpRequest& request) {
  const std::shared_ptr<const ServingState> current = state();
  std::string dsl;
  if (!request.body.empty()) {
    dsl = request.body;
  } else if (options_.reload_source) {
    auto loaded = options_.reload_source();
    if (!loaded.ok()) {
      return JsonResponse(400, ErrorJson(loaded.status()));
    }
    dsl = std::move(loaded).value();
  } else {
    dsl = current->dsl;  // recompile in place
  }

  // Generations come from a monotonic counter, not current+1, so two
  // racing reloads can never mint the same epoch (and therefore the same
  // template salt) for different DSL.
  const uint64_t generation =
      reload_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto built = BuildState(std::move(dsl), generation);
  if (!built.ok()) {
    // The old context keeps serving; a bad reload must never take the
    // daemon down or degrade it.
    return JsonResponse(400, ErrorJson(built.status()));
  }
  {
    MutexLock lock(&mu_);
    state_ = std::move(built).value();
  }
  // Drop every memoized boundary. Entries of earlier generations are
  // unreachable anyway (their salt differs), so this is pure storage
  // reclamation plus a hard guarantee for the staleness contract.
  template_cache_.Clear();
  obs::Serve().reloads->Increment();
  return JsonResponse(
      200, "{\"generation\":" + std::to_string(generation) + "}");
}

}  // namespace serve
}  // namespace webrbd
