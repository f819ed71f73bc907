// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Outside-in tracing of the extraction pipeline. TracedExtractDocument
// calls the same public layer functions, in the same order, that
// ExtractionContext::ExtractDocumentImpl calls, with a span around each.
// Nothing is added to the program itself. The replay's output digest is
// compared with the untraced run's, so a drift between this mirror and the
// real pipeline fails the benchmark instead of silently skewing the
// per-layer numbers.

#ifndef WEBRBD_PERFBENCH_TRACED_PIPELINE_H_
#define WEBRBD_PERFBENCH_TRACED_PIPELINE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "bench_support.h"
#include "extract/extraction_context.h"
#include "extract/record_sink.h"
#include "extract/template_cache.h"
#include "html/arena.h"
#include "util/result.h"

namespace perfbench {

/// Exact work counts gathered by the replay.
struct TraceCounters {
  uint64_t documents = 0;
  uint64_t bytes = 0;           // HTML bytes lexed
  uint64_t tokens = 0;          // balanced tokens
  uint64_t text_bytes = 0;      // region plain-text bytes recognized
  uint64_t pattern_bytes = 0;   // matchers x region-text bytes
  uint64_t drt_entries = 0;     // Data-Record Table entries
  uint64_t records = 0;         // records delivered
};

/// Number of matchers the recognizer runs over each region text: one per
/// keyword regex, one per value regex, one per non-empty lexicon.
uint64_t MatcherCount(const webrbd::Recognizer& recognizer);

/// Replays one document through `context`'s pipeline. `cache` is the
/// template cache to memoize through (nullptr: no memoization, as for a
/// standalone ExtractDocumentInto). Records go to `sink` (the batch
/// engine's per-document staging buffer in the real pipeline). Returns the
/// separator, or the status the real pipeline returns for this document.
webrbd::Result<std::string> TracedExtractDocument(
    const webrbd::ExtractionContext& context, webrbd::TemplateCache* cache,
    std::string_view html, webrbd::DocumentArena& arena,
    webrbd::RecordSink& sink, uint32_t document_index, Tracer& tracer,
    TraceCounters& counters);

}  // namespace perfbench

#endif  // WEBRBD_PERFBENCH_TRACED_PIPELINE_H_
