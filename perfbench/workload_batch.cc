// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The two batch workloads: crawl_full (four full ontologies, adversarial
// pages mixed in, 2 worker threads, records into a store) and
// template_skew (structure-only ontology over a Zipf template corpus, one
// thread, template cache on and empty at the start of every timed pass).

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "extract/extraction_context.h"
#include "extract/record_sink.h"
#include "extract/recognizer_cache.h"
#include "extract/template_cache.h"
#include "gen/adversarial.h"
#include "gen/site_template.h"
#include "gen/sites.h"
#include "gen/template_skew.h"
#include "html/tree_builder.h"
#include "ontology/bundled.h"
#include "util/rng.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {
namespace {

using webrbd::ExtractionContext;
using webrbd::Ontology;
using webrbd::Result;
using webrbd::Status;
using webrbd::store::RecordStore;

// --- Inputs ----------------------------------------------------------------

struct Batch {
  size_t context = 0;  // index into the engine's contexts
  std::vector<std::string> docs;
  std::vector<std::string> labels;  // per document, for the manifest
};

struct BatchWorkloadSpec {
  std::string name;
  /// One factory per context; setup parses/builds each ontology.
  std::vector<std::function<Result<Ontology>()>> ontologies;
  int threads = 1;
  std::vector<Batch> batches;
  /// Documents the inputs make fail, by status code, known by construction.
  std::map<std::string, uint64_t> expected_failures;
  /// Whether records also go to a store. A structure-only ontology
  /// delivers none (its empty partitions are dropped), so template_skew
  /// keeps no store.
  bool with_store = true;
};

// crawl_full: per domain, kPagesPerDomain listing pages rendered from the
// calibration and test sites in turn (from a seeded first site) at seeded
// document indices, plus one page of every adversarial shape, shape s in
// batch s % 4 at a seeded position. The site mix and the adversarial
// placement by domain stay fixed across seeds, so a seed changes the
// pages, not how much of each kind of work a pass holds.
constexpr int kPagesPerDomain = 96;
// Two workers: the pool is exercised while half the host's 4 vCPUs stay
// free, which keeps throughput steadier on a shared host than 4 workers.
constexpr int kCrawlThreads = 2;

BatchWorkloadSpec CrawlFullSpec(uint64_t seed) {
  BatchWorkloadSpec spec;
  spec.name = "crawl_full";
  spec.threads = kCrawlThreads;
  webrbd::Rng rng(seed, /*stream=*/0xc2a1);
  for (webrbd::Domain domain : webrbd::kAllDomains) {
    spec.ontologies.push_back(
        [domain]() { return webrbd::BundledOntology(domain); });
    std::vector<webrbd::gen::SiteTemplate> sites =
        webrbd::gen::CalibrationSites();
    for (const auto& site : webrbd::gen::TestSites(domain)) {
      sites.push_back(site);
    }
    Batch batch;
    batch.context = spec.ontologies.size() - 1;
    const size_t first_site = rng.Below(static_cast<uint32_t>(sites.size()));
    for (int j = 0; j < kPagesPerDomain; ++j) {
      const auto& site = sites[(first_site + static_cast<size_t>(j)) % sites.size()];
      const int doc_index = static_cast<int>(rng.Below(1u << 20));
      batch.docs.push_back(
          webrbd::gen::RenderDocument(site, domain, doc_index).html);
      batch.labels.push_back(webrbd::DomainName(domain));
    }
    spec.batches.push_back(std::move(batch));
  }
  // AdversarialCorpus(n) renders the shapes in declaration order at the
  // scales chosen against the production limits.
  const auto& shapes = webrbd::gen::AllAdversarialShapes();
  std::vector<std::string> adversarial =
      webrbd::gen::AdversarialCorpus(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    Batch& batch = spec.batches[s % spec.batches.size()];
    const size_t at = rng.Below(static_cast<uint32_t>(batch.docs.size() + 1));
    batch.docs.insert(batch.docs.begin() + static_cast<ptrdiff_t>(at),
                      std::move(adversarial[s]));
    batch.labels.insert(
        batch.labels.begin() + static_cast<ptrdiff_t>(at),
        "adversarial:" +
            std::string(webrbd::gen::AdversarialShapeName(shapes[s])));
    if (shapes[s] == webrbd::gen::AdversarialShape::kDepthBomb) {
      ++spec.expected_failures["ResourceExhausted"];
    } else if (shapes[s] == webrbd::gen::AdversarialShape::kDistinctTagStorm) {
      ++spec.expected_failures["FailedPrecondition"];
    }
  }
  return spec;
}

// template_skew: a structure-only ontology over a Zipf corpus whose 360
// templates leave roughly one page in ten a template-cache miss.
constexpr int kSkewTemplates = 360;
constexpr int kSkewPages = 3000;

BatchWorkloadSpec TemplateSkewSpec(uint64_t seed,
                                   webrbd::gen::TemplateSkewCorpus* corpus) {
  BatchWorkloadSpec spec;
  spec.name = "template_skew";
  spec.threads = 1;
  spec.with_store = false;
  spec.ontologies.push_back(
      []() -> Result<Ontology> { return Ontology("structure-only", "Record", {}); });
  webrbd::gen::TemplateSkewOptions options;
  options.num_templates = kSkewTemplates;
  options.num_pages = kSkewPages;
  options.zipf_exponent = 1.0;
  options.seed = webrbd::Rng(seed, /*stream=*/0x5e3d).NextU64();
  *corpus = webrbd::gen::GenerateTemplateSkewCorpus(options);
  Batch batch;
  batch.docs = std::move(corpus->pages);
  for (int t : corpus->template_of_page) {
    batch.labels.push_back("template:" + std::to_string(t));
  }
  spec.batches.push_back(std::move(batch));
  return spec;
}

// --- Set-up ----------------------------------------------------------------

// Everything set-up builds, and setup_s times: the ontologies, the private
// recognizer and template caches, the compiled contexts, the open store.
struct Engine {
  std::vector<std::unique_ptr<Ontology>> ontologies;
  webrbd::RecognizerCache recognizers;
  webrbd::TemplateCache templates;
  std::vector<ExtractionContext> contexts;
  std::unique_ptr<RecordStore> store;
};

// Gives the engine a fresh, empty store, if the workload writes one.
Status FreshStore(const BatchWorkloadSpec& spec, Engine& engine,
                  const std::string& path) {
  if (!spec.with_store) return Status::OK();
  auto store = OpenFreshStore(path);
  if (!store.ok()) return store.status();
  engine.store = std::move(store).value();
  return Status::OK();
}

Result<std::unique_ptr<Engine>> BuildEngine(const BatchWorkloadSpec& spec,
                                            const std::string& store_path) {
  auto engine = std::make_unique<Engine>();
  webrbd::ContextOptions options;
  options.cache = &engine->recognizers;
  options.template_cache = &engine->templates;
  for (const auto& factory : spec.ontologies) {
    auto ontology = factory();
    if (!ontology.ok()) return ontology.status();
    engine->ontologies.push_back(
        std::make_unique<Ontology>(std::move(ontology).value()));
    auto context =
        ExtractionContext::Create(*engine->ontologies.back(), options);
    if (!context.ok()) return context.status();
    engine->contexts.push_back(std::move(context).value());
  }
  Status opened = FreshStore(spec, *engine, store_path);
  if (!opened.ok()) return opened;
  return engine;
}

std::string OutcomeString(const Result<std::string>& separator) {
  return separator.ok() ? "sep:" + *separator
                        : "err:" + std::string(webrbd::StatusCodeName(
                                       separator.status().code()));
}

// --- Reference -------------------------------------------------------------

// The expected output, from a different path than the timed one: one
// ExtractDocumentInto per document, one thread, starting each document
// from an empty template cache. That is each page's own, uncached result
// (`digests`, pinned for the default seed).
//
// A template-cache hit replays the boundary memoized for ANOTHER page with
// the same fingerprint. Where pages share a fingerprint but not a
// boundary, the output then depends on which page of the template the
// batch engine saw first, which with several workers is a race. So each
// document also accepts every result it can reach that way: for every
// distinct boundary artifact its fingerprint group produced, the document
// is extracted once more from a cache holding only that artifact
// (`accepted`). `cached` is the batch engine's output in the warm-up pass;
// in a traced run that pass is single-threaded and the traced replay must
// equal it.
struct Reference {
  std::vector<std::vector<uint64_t>> digests;  // [batch][doc]
  std::vector<std::vector<std::vector<uint64_t>>> accepted;  // [batch][doc]
  std::vector<std::vector<uint64_t>> cached;   // [batch][doc]
  std::vector<std::vector<std::string>> outcomes;  // [batch][doc]
  std::vector<std::vector<int64_t>> doc_ns;    // [batch][doc]
  std::map<std::string, uint64_t> failures;    // status code -> docs
  uint64_t docs = 0;
  uint64_t records = 0;
  uint64_t cache_ambiguous = 0;  // documents with more than one result

  uint64_t Digest() const {
    std::vector<uint64_t> all;
    for (const auto& batch : digests) all.insert(all.end(), batch.begin(), batch.end());
    return CorpusDigest(all);
  }

  bool Accepts(size_t batch, size_t doc, uint64_t digest) const {
    const std::vector<uint64_t>& ok = accepted[batch][doc];
    return std::find(ok.begin(), ok.end(), digest) != ok.end();
  }
};

// What a re-application of an artifact depends on (core/boundary_artifact.h).
std::string ArtifactKey(const webrbd::BoundaryArtifact& artifact) {
  webrbd::FnvHasher fnv;
  fnv.AddField(artifact.separator);
  fnv.AddSize(artifact.subtree_path.size());
  for (size_t step : artifact.subtree_path) fnv.AddSize(step);
  for (const std::string& name : artifact.subtree_path_names) fnv.AddField(name);
  fnv.AddSize(artifact.separator_child_count);
  return HexDigest(fnv.hash());
}

Reference BuildReference(const BatchWorkloadSpec& spec, const Engine& engine) {
  Reference reference;
  for (const Batch& batch : spec.batches) {
    const ExtractionContext& context = engine.contexts[batch.context];
    webrbd::TemplateCache cache;
    webrbd::ContextOptions options = context.options();
    options.template_memoization = webrbd::TemplateMemoization::kAlways;
    options.template_cache = &cache;
    const ExtractionContext memoizing =
        ExtractionContext::FromCompiledRecognizer(context.ontology(),
                                                  context.recognizer(), options);
    webrbd::DocumentArena arena;
    auto extract = [&](const std::string& doc, Result<std::string>* separator,
                       size_t* records) {
      arena.Reset();
      DigestSink sink;
      auto outcome = memoizing.ExtractDocumentInto(doc, arena, sink);
      *separator = outcome.ok() ? Result<std::string>(outcome->separator)
                                : Result<std::string>(outcome.status());
      *records = outcome.ok() ? outcome->records_written : 0;
      return DocumentDigest(OutcomeString(*separator), sink.DocumentHash(0));
    };

    std::vector<uint64_t> digests;
    std::vector<int64_t> doc_ns;
    std::vector<std::string> outcomes;
    std::vector<uint64_t> fingerprints(batch.docs.size(), 0);
    std::vector<std::shared_ptr<const webrbd::BoundaryArtifact>> artifacts(
        batch.docs.size());
    std::map<uint64_t, std::vector<size_t>> groups;
    for (size_t i = 0; i < batch.docs.size(); ++i) {
      cache.Clear();
      Result<std::string> separator = Status::Internal("unset");
      size_t records = 0;
      const int64_t start = NowNs();
      digests.push_back(extract(batch.docs[i], &separator, &records));
      doc_ns.push_back(NowNs() - start);
      outcomes.push_back(OutcomeString(separator));
      reference.records += records;
      if (!separator.ok()) {
        ++reference.failures[std::string(
            webrbd::StatusCodeName(separator.status().code()))];
      }
      ++reference.docs;
      arena.Reset();
      auto balanced = webrbd::LexAndBalance(
          batch.docs[i], context.options().discovery.limits, arena);
      if (!balanced.ok()) continue;
      fingerprints[i] =
          webrbd::PageFingerprint(balanced->tokens, balanced->symbols,
                                  arena.interner(), memoizing.template_salt());
      artifacts[i] = cache.Lookup(fingerprints[i]);
      groups[fingerprints[i]].push_back(i);
    }

    std::vector<std::vector<uint64_t>> accepted(batch.docs.size());
    for (size_t i = 0; i < batch.docs.size(); ++i) accepted[i] = {digests[i]};
    for (const auto& [fingerprint, members] : groups) {
      std::map<std::string, std::shared_ptr<const webrbd::BoundaryArtifact>>
          distinct;
      for (size_t m : members) {
        if (artifacts[m] != nullptr) distinct[ArtifactKey(*artifacts[m])] = artifacts[m];
      }
      for (size_t d : members) {
        for (const auto& [key, artifact] : distinct) {
          if (artifacts[d] != nullptr && ArtifactKey(*artifacts[d]) == key) continue;
          cache.Clear();
          cache.Put(fingerprint, artifact);
          Result<std::string> separator = Status::Internal("unset");
          size_t records = 0;
          const uint64_t digest = extract(batch.docs[d], &separator, &records);
          if (std::find(accepted[d].begin(), accepted[d].end(), digest) ==
              accepted[d].end()) {
            accepted[d].push_back(digest);
          }
        }
      }
    }
    for (const auto& options_for_doc : accepted) {
      if (options_for_doc.size() > 1) ++reference.cache_ambiguous;
    }
    reference.digests.push_back(std::move(digests));
    reference.accepted.push_back(std::move(accepted));
    reference.doc_ns.push_back(std::move(doc_ns));
    reference.outcomes.push_back(std::move(outcomes));
  }
  return reference;
}

// --- Timed pass ------------------------------------------------------------

struct PassStats {
  int threads = 1;
  double wall_s = 0;
  uint64_t docs = 0;
  /// Per document, its time on a worker; kUntimed for a worker's last
  /// document, which has no successor stamp.
  std::vector<std::vector<double>> doc_ms;  // [batch][doc]
  double timed_doc_s = 0;  // summed over the timed documents
  double capacity_ns = 0;  // summed batch wall x threads
  std::vector<std::vector<uint64_t>> doc_digests;  // [batch][doc]
  /// Per batch, per worker: busy time up to its last document, and that
  /// document's index. The last document has no successor stamp;
  /// SettleBusy counts it at its reference duration.
  std::vector<std::vector<std::pair<double, size_t>>> workers;
  // Filled by SettleBusy:
  double busy_ns = 0;             // summed worker busy time
  std::vector<double> imbalance;  // per batch
};

constexpr double kUntimed = -1;

struct Stamp {
  std::thread::id thread;
  int64_t ns = 0;
};

// One pass over every batch through ExtractCorpusInto into the engine's
// store. Per document latency is the gap between consecutive
// document_hook calls on one worker. The outputs are checked later, by
// Mismatches, so that the reference is not built before the timed passes.
PassStats RunPass(const BatchWorkloadSpec& spec, Engine& engine, int threads,
                  RunResult& result) {
  PassStats pass;
  pass.threads = threads;
  pass.doc_digests.resize(spec.batches.size());
  pass.doc_ms.resize(spec.batches.size());
  pass.workers.resize(spec.batches.size());
  const int64_t pass_start = NowNs();
  for (size_t b = 0; b < spec.batches.size(); ++b) {
    const Batch& batch = spec.batches[b];
    DigestSink digest;
    std::optional<webrbd::StoreSink> store_sink;
    std::vector<webrbd::RecordSink*> sinks = {&digest};
    if (engine.store != nullptr) sinks.push_back(&store_sink.emplace(engine.store.get()));
    webrbd::TeeSink tee(sinks);
    std::vector<Stamp> stamps(batch.docs.size());
    webrbd::BatchRunOptions run;
    run.num_threads = threads;
    run.document_hook = [&stamps](size_t i) {
      stamps[i] = Stamp{std::this_thread::get_id(), NowNs()};
    };
    const int64_t start = NowNs();
    auto outcome =
        engine.contexts[batch.context].ExtractCorpusInto(batch.docs, tee, run);
    const int64_t stop = NowNs();
    if (!outcome.ok()) {
      result.Fail("ExtractCorpusInto: " + outcome.status().ToString());
      pass.doc_digests[b].assign(batch.docs.size(), 0);
      continue;
    }
    for (size_t i = 0; i < batch.docs.size(); ++i) {
      const auto& doc = outcome->documents[i];
      const Result<std::string> separator =
          doc.ok() ? Result<std::string>(doc->separator)
                   : Result<std::string>(doc.status());
      pass.doc_digests[b].push_back(DocumentDigest(
          OutcomeString(separator),
          digest.DocumentHash(static_cast<uint32_t>(i))));
    }
    pass.docs += batch.docs.size();

    std::map<std::thread::id, std::vector<std::pair<int64_t, size_t>>>
        by_thread;
    for (size_t i = 0; i < stamps.size(); ++i) {
      by_thread[stamps[i].thread].emplace_back(stamps[i].ns, i);
    }
    std::vector<double>& doc_ms = pass.doc_ms[b];
    doc_ms.assign(batch.docs.size(), kUntimed);
    for (auto& [thread, docs] : by_thread) {
      std::sort(docs.begin(), docs.end());
      double thread_busy = 0;
      for (size_t k = 0; k + 1 < docs.size(); ++k) {
        const double gap = static_cast<double>(docs[k + 1].first - docs[k].first);
        doc_ms[docs[k].second] = gap / 1e6;
        thread_busy += gap;
      }
      pass.timed_doc_s += thread_busy / 1e9;
      pass.workers[b].emplace_back(thread_busy, docs.back().second);
    }
    pass.capacity_ns += static_cast<double>(stop - start) * threads;
  }
  pass.wall_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  return pass;
}

// The documents of one pass's output ([batch][doc] digests) that lie
// outside the reference.
uint64_t Mismatches(const BatchWorkloadSpec& spec, const Reference& reference,
                    const std::vector<std::vector<uint64_t>>& doc_digests) {
  uint64_t mismatched = 0;
  for (size_t b = 0; b < doc_digests.size(); ++b) {
    for (size_t i = 0; i < doc_digests[b].size(); ++i) {
      if (reference.Accepts(b, i, doc_digests[b][i])) continue;
      if (mismatched == 0) {
        std::cerr << "perfbench: " << spec.name << " batch " << b << " doc "
                  << i << " differs from the reference ("
                  << reference.outcomes[b][i] << ")\n";
      }
      ++mismatched;
    }
  }
  return mismatched;
}

// Completes a pass's busy time and imbalance.
void SettleBusy(const Reference& reference, PassStats& pass) {
  for (size_t b = 0; b < pass.workers.size(); ++b) {
    std::vector<double> busy;
    for (const auto& [thread_busy, last] : pass.workers[b]) {
      busy.push_back(thread_busy + static_cast<double>(reference.doc_ns[b][last]));
    }
    double busy_sum = 0;
    for (double t : busy) busy_sum += t;
    pass.busy_ns += busy_sum;
    if (busy_sum > 0) {
      pass.imbalance.push_back(*std::max_element(busy.begin(), busy.end()) /
                               (busy_sum / pass.threads));
    }
  }
}

// --- Traced replay -----------------------------------------------------------

struct ReplayStats {
  double wall_s = 0;
  uint64_t mismatched = 0;
  uint64_t user_bytes = 0;
  std::vector<uint64_t> record_hashes;
};

// The traced mirror of one RunPass at one thread: per document the
// mirrored pipeline into a staging buffer (as the batch engine stages),
// then delivery to the store, then one flush per batch.
ReplayStats ReplayPass(const BatchWorkloadSpec& spec, Engine& engine,
                       const Reference& reference,
                       webrbd::TemplateCache* cache, Tracer& tracer,
                       TraceCounters& counters, RunResult& result) {
  ReplayStats replay;
  const int64_t start = NowNs();
  for (size_t b = 0; b < spec.batches.size(); ++b) {
    const Batch& batch = spec.batches[b];
    const ExtractionContext& context = engine.contexts[batch.context];
    webrbd::DocumentArena arena;
    DigestSink digest;
    std::optional<webrbd::StoreSink> store_sink;
    if (engine.store != nullptr) store_sink.emplace(engine.store.get());
    std::vector<std::string> outcomes;
    std::vector<std::vector<webrbd::PopulatedRecord>> staged;
    for (size_t i = 0; i < batch.docs.size(); ++i) {
      arena.Reset();
      webrbd::BufferSink buffer;
      Result<std::string> separator = TracedExtractDocument(
          context, cache, batch.docs[i], arena, buffer,
          static_cast<uint32_t>(i), tracer, counters);
      outcomes.push_back(OutcomeString(separator));
      staged.push_back(separator.ok() ? buffer.TakeRecords()
                                      : std::vector<webrbd::PopulatedRecord>{});
    }
    for (const auto& records : staged) {
      for (const webrbd::PopulatedRecord& record : records) {
        (void)digest.Write(record);
        replay.user_bytes += record.entity.size();
        for (const auto& [name, value] : record.fields) {
          replay.user_bytes += name.size() + value.size();
        }
        if (!store_sink.has_value()) continue;
        ScopedSpan span(tracer, Layer::kStoreAppend);
        Status written = store_sink->Write(record);
        if (!written.ok()) result.Fail("store append: " + written.ToString());
      }
    }
    if (store_sink.has_value()) {
      ScopedSpan span(tracer, Layer::kStoreFlush);
      Status flushed = store_sink->Flush();
      if (!flushed.ok()) result.Fail("store flush: " + flushed.ToString());
    }
    for (size_t i = 0; i < batch.docs.size(); ++i) {
      const uint64_t got = DocumentDigest(
          outcomes[i], digest.DocumentHash(static_cast<uint32_t>(i)));
      if (got != reference.cached[b][i]) ++replay.mismatched;
    }
    replay.record_hashes.insert(replay.record_hashes.end(),
                                digest.record_hashes().begin(),
                                digest.record_hashes().end());
  }
  replay.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return replay;
}

// --- The run -----------------------------------------------------------------

// The per-layer tail (tail.doc_p99_ms) is the median over windows of this
// many documents, so each window's p99 has ten samples beyond it.
constexpr size_t kLatencyWindow = 1000;

RunResult RunBatchWorkload(const BatchWorkloadSpec& spec,
                           const RunConfig& config,
                           std::vector<std::pair<std::string, std::string>>
                               manifest) {
  RunResult result;
  // peak_rss_mb is what extraction adds to a process that holds the
  // generated inputs: the peak after the timed passes, less the peak
  // before set-up.
  const double inputs_rss_mb = PeakRssMb();
  const std::string store_path =
      config.work_dir + "/" + spec.name + ".store";

  // Set-up, timed several times; the last engine is the one used.
  std::unique_ptr<Engine> engine;
  Status setup_status = Status::OK();
  const double setup_s = MedianSetupSeconds(101, [&]() { engine.reset(); }, [&]() {
    auto built = BuildEngine(spec, store_path);
    if (!built.ok()) {
      setup_status = built.status();
      return;
    }
    engine = std::move(built).value();
  });
  if (!setup_status.ok() || engine == nullptr) {
    result.Fail("set-up: " + setup_status.ToString());
    return result;
  }

  // Warm-up pass (allocator, page cache), outside the timed window. A
  // traced run warms up single-threaded: that output is what its replay,
  // also single-threaded in input order, must reproduce.
  engine->templates.Clear();
  PassStats warm =
      RunPass(spec, *engine, config.trace ? 1 : spec.threads, result);

  // Timed passes: each starts with an empty template cache and a fresh
  // store. A traced run spends half its time here and half in the traced
  // replay. What the passes leave behind does not grow with their number
  // (each document's best time, the tail in streaming windows, identical
  // outputs kept once), so the memory peak does not depend on how fast the
  // host ran.
  //
  // A document's best time is the least it took in any timed pass. The
  // shared host's speed drifts by 20-40% within seconds, and interference
  // only ever adds time, so the best of many passes is the document's own
  // cost; the end-to-end latencies are taken over those.
  const double window_s = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<PassStats> passes;
  std::map<std::vector<std::vector<uint64_t>>, uint64_t> outputs;  // -> passes
  std::vector<std::vector<double>> best_ms;  // [batch][doc]
  for (const Batch& batch : spec.batches) {
    best_ms.emplace_back(batch.docs.size(), std::numeric_limits<double>::infinity());
  }
  StreamingWindowedQuantiles tail_ms({0.99}, kLatencyWindow);
  double timed_s = 0;
  while (timed_s < window_s || passes.empty()) {
    Status opened = FreshStore(spec, *engine, store_path);
    if (!opened.ok()) {
      result.Fail("store open: " + opened.ToString());
      return result;
    }
    engine->templates.Clear();
    PassStats pass = RunPass(spec, *engine, spec.threads, result);
    timed_s += pass.wall_s;
    for (size_t b = 0; b < pass.doc_ms.size(); ++b) {
      for (size_t i = 0; i < pass.doc_ms[b].size(); ++i) {
        const double ms = pass.doc_ms[b][i];
        if (ms == kUntimed) continue;
        tail_ms.Add(ms);
        best_ms[b][i] = std::min(best_ms[b][i], ms);
      }
    }
    ++outputs[std::move(pass.doc_digests)];
    pass.doc_ms = {};
    pass.doc_digests = {};
    passes.push_back(std::move(pass));
  }
  const double peak_rss_mb = PeakRssMb() - inputs_rss_mb;

  // The reference, built after the timed passes so that its extractions
  // stay out of the memory peak; every pass must reproduce it.
  Reference reference = BuildReference(spec, *engine);
  const std::string output_digest = HexDigest(reference.Digest());
  uint64_t fatal = 0;
  auto it = reference.failures.find("ResourceExhausted");
  if (it != reference.failures.end()) fatal = it->second;
  uint64_t other_failures = 0;
  for (const auto& [code, count] : reference.failures) {
    if (code != "ResourceExhausted") other_failures += count;
  }
  auto by_code = [](const std::map<std::string, uint64_t>& counts) {
    std::string json = "{";
    for (const auto& [code, count] : counts) {
      if (json.size() > 1) json += ", ";
      json += "\"" + code + "\": " + std::to_string(count);
    }
    return json + "}";
  };
  manifest.emplace_back("output_digest", "\"" + output_digest + "\"");
  manifest.emplace_back("records_per_pass", std::to_string(reference.records));
  manifest.emplace_back("failed_docs_by_code", by_code(reference.failures));
  manifest.emplace_back("failed_docs_by_construction",
                        by_code(spec.expected_failures));
  if (reference.failures != spec.expected_failures) {
    std::cerr << "perfbench: note: the reference rejects other documents "
                 "than the inputs were built to have rejected\n";
  }
  manifest.emplace_back("template_cache_ambiguous_docs",
                        std::to_string(reference.cache_ambiguous));
  manifest.emplace_back("inputs_rss_mb", std::to_string(inputs_rss_mb));
  PrintManifest(spec.name, manifest);
  if (config.pinned_digest.has_value() && *config.pinned_digest != output_digest) {
    result.Fail(spec.name + " output digest " + output_digest +
                " differs from the recorded " + *config.pinned_digest);
  }
  if (Mismatches(spec, reference, warm.doc_digests) > 0) {
    result.Fail("warm-up pass differs from reference");
  }
  reference.cached = std::move(warm.doc_digests);
  for (const auto& [doc_digests, count] : outputs) {
    result.failed += count * Mismatches(spec, reference, doc_digests);
  }

  std::vector<double> best;  // ms, of every document timed at least once
  double best_s = 0;
  for (const auto& batch : best_ms) {
    for (double ms : batch) {
      if (ms == std::numeric_limits<double>::infinity()) continue;
      best.push_back(ms);
      best_s += ms / 1e3;
    }
  }
  // With one worker a pass's wall time is its documents' times plus the
  // pass's own overhead, and the same documents are timed in every pass, so
  // each pass is rated with its documents at their best times. With several
  // workers the documents overlap, and the wall time is taken as measured.
  uint64_t docs = 0;
  std::vector<double> pass_rates;
  double busy_ns = 0;
  double capacity_ns = 0;
  std::vector<double> imbalance;
  for (PassStats& pass : passes) {
    docs += pass.docs;
    const double wall_s = spec.threads == 1
                              ? pass.wall_s - pass.timed_doc_s + best_s
                              : pass.wall_s;
    pass_rates.push_back(static_cast<double>(pass.docs) / wall_s);
    SettleBusy(reference, pass);
    busy_ns += pass.busy_ns;
    capacity_ns += pass.capacity_ns;
    imbalance.insert(imbalance.end(), pass.imbalance.begin(),
                     pass.imbalance.end());
  }
  result.attempted = docs;
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) +
                " documents differ from the reference output");
  }

  if (!config.trace) {
    result.values["setup_s"] = setup_s;
    // The median over passes, so one stall of the host moves one sample,
    // not the result; latency quantiles over the documents' best times.
    result.values["docs_per_s"] = Median(pass_rates);
    result.values["doc_p50_ms"] = Quantile(best, 0.50).value;
    result.values["doc_p90_ms"] = Quantile(best, 0.90).value;
    result.values["peak_rss_mb"] = peak_rss_mb;
    return result;
  }

  // --- Traced run ----------------------------------------------------------
  result.values["tail.doc_p99_ms"] = tail_ms.Result(0).value;
  if (spec.threads > 1) {
    result.values["pool.utilization"] =
        capacity_ns > 0 ? busy_ns / capacity_ns : 0;
    result.values["pool.imbalance"] = Median(imbalance);
  }
  result.values["robust.failed_docs.ResourceExhausted"] =
      static_cast<double>(fatal);
  result.values["robust.failed_docs.other"] =
      static_cast<double>(other_failures);
  result.values["robust.error_rate"] =
      static_cast<double>(fatal + other_failures) /
      static_cast<double>(reference.docs);

  // Untraced single-thread baseline for the tracing overhead.
  double baseline_s = 0;
  {
    Status opened = FreshStore(spec, *engine, store_path);
    if (!opened.ok()) {
      result.Fail("store open: " + opened.ToString());
      return result;
    }
    engine->templates.Clear();
    PassStats baseline = RunPass(spec, *engine, 1, result);
    if (Mismatches(spec, reference, baseline.doc_digests) > 0) {
      result.Fail("untraced single-thread pass differs from reference");
    }
    baseline_s = baseline.wall_s;
  }

  webrbd::TemplateCache replay_cache;
  Tracer tracer;
  TraceCounters counters;
  std::vector<double> replay_wall;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t fallbacks = 0;
  ReplayStats last;
  const int64_t replay_start = NowNs();
  while (replay_wall.empty() ||
         static_cast<double>(NowNs() - replay_start) / 1e9 <
             config.seconds / 2) {
    Status opened = FreshStore(spec, *engine, store_path);
    if (!opened.ok()) {
      result.Fail("store open: " + opened.ToString());
      return result;
    }
    replay_cache.Clear();
    last = ReplayPass(spec, *engine, reference, &replay_cache, tracer,
                      counters, result);
    if (last.mismatched > 0) {
      result.Fail("traced replay differs from the untraced output on " +
                  std::to_string(last.mismatched) + " documents");
    }
    replay_wall.push_back(last.wall_s);
    hits += replay_cache.hits();
    lookups += replay_cache.hits() + replay_cache.misses();
    fallbacks += replay_cache.fallbacks();
  }
  const double passes_replayed = static_cast<double>(replay_wall.size());
  ReportTrace(tracer, counters, result);
  result.values["extract.template_cache.hit_rate"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0;
  result.values["extract.template_cache.lookups"] =
      static_cast<double>(lookups) / passes_replayed;
  result.values["extract.template_cache.fallbacks"] =
      static_cast<double>(fallbacks) / passes_replayed;
  result.values["trace.overhead"] = Median(replay_wall) / baseline_s;

  if (engine->store == nullptr) return result;
  Tracer scan_tracer;
  ReportScanPhase(scan_tracer,
                  RunScanPhase(*engine->store, last.record_hashes, config.seed,
                               scan_tracer),
                  result);
  result.values["store.index_segments"] =
      static_cast<double>(engine->store->index_segments());
  std::error_code error;
  const auto file_bytes = std::filesystem::file_size(store_path, error);
  if (!error && last.user_bytes > 0) {
    result.values["store.bytes_per_user_byte"] =
        static_cast<double>(file_bytes) / static_cast<double>(last.user_bytes);
  }
  return result;
}

std::string Share(size_t part, size_t whole) {
  return std::to_string(static_cast<double>(part) /
                        static_cast<double>(std::max<size_t>(whole, 1)));
}

std::vector<std::pair<std::string, std::string>> CorpusManifest(
    const BatchWorkloadSpec& spec) {
  std::vector<std::string_view> all;
  size_t bytes = 0;
  for (const Batch& batch : spec.batches) {
    for (const std::string& doc : batch.docs) {
      all.emplace_back(doc);
      bytes += doc.size();
    }
  }
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back("input_digest", "\"" + HexDigest(InputDigest(all)) + "\"");
  fields.emplace_back("documents", std::to_string(all.size()));
  fields.emplace_back("bytes", std::to_string(bytes));
  fields.emplace_back("threads", std::to_string(spec.threads));
  return fields;
}

}  // namespace

RunResult RunCrawlFull(const RunConfig& config) {
  const BatchWorkloadSpec spec = CrawlFullSpec(config.seed);
  auto manifest = CorpusManifest(spec);
  std::map<std::string, size_t> shares;
  size_t total = 0;
  size_t depth_bombs = 0;
  for (const Batch& batch : spec.batches) {
    for (const std::string& label : batch.labels) {
      ++total;
      ++shares[label.rfind("adversarial:", 0) == 0 ? "adversarial" : label];
      if (label == "adversarial:depth-bomb") ++depth_bombs;
    }
  }
  std::string share_json = "{";
  for (const auto& [label, count] : shares) {
    if (share_json.size() > 1) share_json += ", ";
    share_json += "\"" + label + "\": " + Share(count, total);
  }
  share_json += "}";
  manifest.emplace_back("shares", share_json);
  // The depth bomb is the one shape rendered past a fatal production cap
  // (max_tree_depth), and the distinct-tag storm has no repeated child tag
  // to pass the irrelevance threshold; every other shape exercises a
  // recovery path and extracts.
  manifest.emplace_back("fatal_limit_share_by_construction",
                        Share(depth_bombs, total));
  return RunBatchWorkload(spec, config, std::move(manifest));
}

RunResult RunTemplateSkew(const RunConfig& config) {
  webrbd::gen::TemplateSkewCorpus corpus;
  const BatchWorkloadSpec spec = TemplateSkewSpec(config.seed, &corpus);
  auto manifest = CorpusManifest(spec);
  const size_t pages = spec.batches[0].docs.size();
  std::vector<int> counts = corpus.pages_per_template;
  std::sort(counts.rbegin(), counts.rend());
  std::string top = "[";
  for (size_t t = 0; t < std::min<size_t>(5, counts.size()); ++t) {
    if (t > 0) top += ", ";
    top += Share(static_cast<size_t>(counts[t]), pages);
  }
  top += "]";
  manifest.emplace_back("templates", std::to_string(kSkewTemplates));
  manifest.emplace_back("distinct_templates",
                        std::to_string(corpus.distinct_templates_used));
  manifest.emplace_back("top5_template_shares", top);
  manifest.emplace_back(
      "hit_rate_by_construction",
      Share(pages - static_cast<size_t>(corpus.distinct_templates_used),
            pages));
  return RunBatchWorkload(spec, config, std::move(manifest));
}

}  // namespace perfbench
