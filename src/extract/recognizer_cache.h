// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// A compile-once, thread-shared cache of Recognizer instances. Compiling an
// ontology's matching rules (regex parsing + NFA compilation for every data
// frame, see ontology/matching_rules.h) is pure setup work, yet the original
// pipeline paid it once per document. The cache moves compilation out of the
// per-document hot path: the first Get() for an ontology compiles, every
// later Get() — from any thread — returns the same immutable instance.
//
// Keying: ontologies are keyed by *content*, not object address, via a
// structural fingerprint (OntologyFingerprint). Two Ontology objects with
// identical names, object sets, and data frames share one compiled
// recognizer; editing a data frame yields a new key. The ontology name is
// kept in the key alongside the fingerprint so diagnostics stay readable
// and accidental 64-bit collisions across differently-named ontologies are
// impossible.
//
// Thread safety & the no-convoy guarantee: the map mutex is held only for
// slot lookup/insertion — never across compilation. A miss installs a
// per-key in-flight slot and compiles OUTSIDE the map lock; concurrent
// requests for the SAME key block on that slot's latch (compile exactly
// once), while requests for OTHER keys — hits and misses alike — proceed
// untouched. One cold multi-millisecond compile therefore no longer
// convoys hits on already-compiled keys. Returned recognizers are const
// and safe to use from any number of threads concurrently. Both mutexes
// are annotated util/mutex.h Mutex instances, so clang -Wthread-safety
// and webrbd_lint's lock-discipline rule check the map accesses (the
// slot's value/error are deliberately unannotated — see Slot).
//
// Observability: per-instance hit/miss counts are lock-free obs::Counter
// values (the accessors no longer take the mutex), and every cache also
// reports process-wide hits/misses/compile-time to the global metrics
// registry (webrbd_rcache_* — see docs/observability.md).

#ifndef WEBRBD_EXTRACT_RECOGNIZER_CACHE_H_
#define WEBRBD_EXTRACT_RECOGNIZER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "extract/recognizer.h"
#include "obs/metrics.h"
#include "ontology/model.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace webrbd {

/// Structural 64-bit FNV-1a fingerprint of an ontology: covers the name,
/// entity name, and every object set's name, cardinality, and data frame
/// (patterns, keywords, lexicon, value type), in order.
uint64_t OntologyFingerprint(const Ontology& ontology);

/// The cache key for an ontology: "<name>#<fingerprint-hex>".
std::string OntologyCacheKey(const Ontology& ontology);

/// Thread-safe cache of compiled recognizers, keyed by ontology content.
class RecognizerCache {
 public:
  RecognizerCache() = default;
  RecognizerCache(const RecognizerCache&) = delete;
  RecognizerCache& operator=(const RecognizerCache&) = delete;

  /// Returns the recognizer for `ontology`, compiling it on first use.
  /// Compilation failures are returned (and not cached, so a later call
  /// with a corrected ontology of the same name succeeds). Concurrent
  /// callers for the same key wait on the in-flight compile; callers for
  /// other keys are never blocked by it.
  [[nodiscard]] Result<std::shared_ptr<const Recognizer>> Get(
      const Ontology& ontology) WEBRBD_EXCLUDES(mu_);

  /// Number of successfully compiled cached recognizers.
  size_t size() const WEBRBD_EXCLUDES(mu_);

  /// Lookup counters since construction (or the last Clear()). A waiter
  /// that joins an in-flight compile counts as a hit when the compile
  /// succeeds (it did not compile) and a miss when it fails.
  uint64_t hits() const { return hits_.count(); }
  uint64_t misses() const { return misses_.count(); }

  /// Drops every cached recognizer and resets the counters. Outstanding
  /// shared_ptrs stay valid; in-flight compiles complete for their
  /// waiters but are not re-inserted.
  void Clear() WEBRBD_EXCLUDES(mu_);

  /// Test hook: invoked (outside every lock) with the cache key while a
  /// compile is in flight, before Recognizer::Create. Lets tests make one
  /// ontology's compile arbitrarily slow to pin down the no-convoy
  /// guarantee. Not for production use.
  void SetCompileHookForTest(std::function<void(const std::string&)> hook)
      WEBRBD_EXCLUDES(mu_);

 private:
  // One per key: either compiled (done && value) or failed (done &&
  // !value) or in flight (!done). `value`/`error` are written before the
  // release store to `done`, so any reader that observes done == true
  // (acquire) sees them without taking `mu` — they are deliberately NOT
  // annotated WEBRBD_GUARDED_BY(mu): the static analyses cannot express a
  // release/acquire publication protocol, and annotating would force a
  // spurious lock on the lock-free fast path.
  struct Slot {
    Mutex mu;
    CondVar cv;
    std::atomic<bool> done{false};
    std::shared_ptr<const Recognizer> value;
    Status error = Status::OK();
  };

  // Guards slots_ and compile_hook_ only — never held while compiling.
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot>> slots_
      WEBRBD_GUARDED_BY(mu_);
  obs::Counter hits_;
  obs::Counter misses_;
  std::function<void(const std::string&)> compile_hook_
      WEBRBD_GUARDED_BY(mu_);  // test-only
};

/// The process-wide cache used by contexts whose ContextOptions::cache is
/// null.
RecognizerCache& GlobalRecognizerCache();

}  // namespace webrbd

#endif  // WEBRBD_EXTRACT_RECOGNIZER_CACHE_H_
