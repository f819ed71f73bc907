// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Component micro-benchmarks: the HTML lexer, the Appendix-A tag-tree
// builder and its lex+balance front end, candidate extraction, each of
// the five heuristics, the regex engine, the lexicon matcher, the
// recognizer, the Database-Instance Generator's partition and field
// assembly, and end-to-end discovery.

#include <benchmark/benchmark.h>

#include <regex>

#include "core/discovery.h"
#include "core/wrapper.h"
#include "core/ht_heuristic.h"
#include "core/it_heuristic.h"
#include "core/om_heuristic.h"
#include "core/rp_heuristic.h"
#include "core/sd_heuristic.h"
#include "extract/db_instance_generator.h"
#include "extract/extraction_context.h"
#include "extract/recognizer.h"
#include "extract/record_sink.h"
#include "gen/adversarial.h"
#include "gen/corpora.h"
#include "gen/sites.h"
#include "gen/template_skew.h"
#include "robust/limits.h"
#include "html/arena.h"
#include "html/lexer.h"
#include "html/text_index.h"
#include "html/tree_builder.h"
#include "legacy_balance_baseline.h"
#include "legacy_dbgen_baseline.h"
#include "legacy_lexer_baseline.h"
#include "legacy_recognizer_baseline.h"
#include "legacy_tree_baseline.h"
#include "ontology/bundled.h"
#include "ontology/estimator.h"
#include "text/lexicon.h"
#include "text/regex.h"

namespace webrbd {
namespace {

// A representative mid-size document (Salt Lake Tribune obituaries).
const std::string& Document() {
  static const std::string doc =
      gen::RenderDocument(gen::CalibrationSites()[0], Domain::kObituaries, 0)
          .html;
  return doc;
}

const TagTree& Tree() {
  static const TagTree tree = BuildTagTree(Document()).value();
  return tree;
}

const CandidateAnalysis& Analysis() {
  static const CandidateAnalysis analysis =
      ExtractCandidateTags(Tree()).value();
  return analysis;
}

void BM_Lexer(benchmark::State& state) {
  DocumentArena arena;
  for (auto _ : state) {
    arena.Reset();  // retains blocks: steady-state batch-worker shape
    benchmark::DoNotOptimize(LexHtml(Document(), arena));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Document().size()));
}
BENCHMARK(BM_Lexer);

// The pre-SWAR lexer (frozen in legacy_lexer_baseline.cc): byte-at-a-time
// scanning and owning std::string tokens. CI's bench-smoke guard asserts
// BM_Lexer / BM_LexerLegacy >= 1.8x by bytes_per_second — a
// hardware-independent floor on the SWAR + zero-copy win.
void BM_LexerLegacy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::LegacyLexHtml(Document(), robust::DocumentLimits::Production()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Document().size()));
}
BENCHMARK(BM_LexerLegacy);

// The raw-text worst case the bulk scan fixes: a <script> body made of
// near-miss "</scrip" closers. The legacy lexer re-compared the closer
// name at every '<'; the SWAR path rejects each candidate in O(1).
void BM_LexerRawTextStorm(benchmark::State& state) {
  const std::string doc = gen::RenderAdversarialDocument(
      gen::AdversarialShape::kRawTextCloseStorm,
      static_cast<size_t>(state.range(0)));
  DocumentArena arena;
  for (auto _ : state) {
    arena.Reset();
    benchmark::DoNotOptimize(
        LexHtml(doc, robust::DocumentLimits::Unlimited(), arena));
  }
  state.SetComplexityN(state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_LexerRawTextStorm)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Complexity(benchmark::oN);

void BM_TagTreeBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildTagTree(Document()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Document().size()));
}
BENCHMARK(BM_TagTreeBuild);

// The pre-arena builder (frozen in legacy_tree_baseline.cc): per-node heap
// allocation, owned strings, string-keyed balancing. CI's bench-smoke
// guard asserts BM_TagTreeBuild / BM_TagTreeBuildLegacy >= 1.2x by
// bytes_per_second — a hardware-independent floor on the arena win.
void BM_TagTreeBuildLegacy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::LegacyBuildTagTree(Document()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Document().size()));
}
BENCHMARK(BM_TagTreeBuildLegacy);

// The balancer's historical worst case: a run of unclosed starts followed
// by a run of stray ends. The complexity fit across the range is the
// regression guard — the pre-index balancer was quadratic here.
void BM_TagTreeBuildStrayEndStorm(benchmark::State& state) {
  const std::string doc = gen::RenderAdversarialDocument(
      gen::AdversarialShape::kStrayEndStorm,
      static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildTagTree(doc, robust::DocumentLimits::Unlimited()));
  }
  state.SetComplexityN(state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_TagTreeBuildStrayEndStorm)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 200'000)
    ->Complexity(benchmark::oN);

// Steps 1+2 (LexAndBalance) on three page shapes: the obituary page above
// (prose-heavy), 32 template-skew pages (markup-dense, one token per ~5.5
// bytes) and a tag storm. BM_LexAndBalanceLegacy runs the frozen
// vector-attribute front end (legacy_balance_baseline.cc) on the same
// pages; CI's bench-smoke guard floors each page's ratio by
// bytes_per_second.
enum class LexPage { kObituary, kTemplateSkew, kTagStorm };

const std::vector<std::string>& LexBalancePages(LexPage page) {
  static const std::vector<std::string> obituary = {Document()};
  static const std::vector<std::string> template_skew = [] {
    gen::TemplateSkewOptions options;
    options.num_templates = 360;
    options.num_pages = 32;
    return gen::GenerateTemplateSkewCorpus(options).pages;
  }();
  static const std::vector<std::string> tag_storm = {
      gen::RenderAdversarialDocument(gen::AdversarialShape::kTagStorm, 4096)};
  switch (page) {
    case LexPage::kObituary:
      return obituary;
    case LexPage::kTemplateSkew:
      return template_skew;
    case LexPage::kTagStorm:
      break;
  }
  return tag_storm;
}

template <typename Balance>
void RunLexAndBalance(benchmark::State& state, LexPage page,
                      const Balance& balance) {
  const std::vector<std::string>& pages = LexBalancePages(page);
  int64_t bytes = 0;
  for (const std::string& doc : pages) {
    bytes += static_cast<int64_t>(doc.size());
  }
  DocumentArena arena;
  for (auto _ : state) {
    for (const std::string& doc : pages) {
      arena.Reset();  // retains blocks and the intern table, as in a batch
      benchmark::DoNotOptimize(
          balance(doc, robust::DocumentLimits::Production(), arena));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pages.size()));
}

void BM_LexAndBalance(benchmark::State& state, LexPage page) {
  RunLexAndBalance(state, page, LexAndBalance);
}
BENCHMARK_CAPTURE(BM_LexAndBalance, obituary, LexPage::kObituary);
BENCHMARK_CAPTURE(BM_LexAndBalance, template_skew, LexPage::kTemplateSkew);
BENCHMARK_CAPTURE(BM_LexAndBalance, tag_storm, LexPage::kTagStorm);

void BM_LexAndBalanceLegacy(benchmark::State& state, LexPage page) {
  RunLexAndBalance(state, page, bench::LegacyLexAndBalance);
}
BENCHMARK_CAPTURE(BM_LexAndBalanceLegacy, obituary, LexPage::kObituary);
BENCHMARK_CAPTURE(BM_LexAndBalanceLegacy, template_skew,
                  LexPage::kTemplateSkew);
BENCHMARK_CAPTURE(BM_LexAndBalanceLegacy, tag_storm, LexPage::kTagStorm);

void BM_CandidateExtraction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractCandidateTags(Tree()));
  }
}
BENCHMARK(BM_CandidateExtraction);

template <typename Heuristic>
void BM_Heuristic(benchmark::State& state) {
  Heuristic heuristic;
  for (auto _ : state) {
    benchmark::DoNotOptimize(heuristic.Rank(Tree(), Analysis()));
  }
}
BENCHMARK_TEMPLATE(BM_Heuristic, HtHeuristic);
BENCHMARK_TEMPLATE(BM_Heuristic, ItHeuristic);
BENCHMARK_TEMPLATE(BM_Heuristic, SdHeuristic);
BENCHMARK_TEMPLATE(BM_Heuristic, RpHeuristic);

void BM_OmHeuristic(benchmark::State& state) {
  auto ontology = BundledOntology(Domain::kObituaries).value();
  OmHeuristic om(MakeEstimatorForOntology(ontology).value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(om.Rank(Tree(), Analysis()));
  }
}
BENCHMARK(BM_OmHeuristic);

void BM_DiscoveryStructuralOnly(benchmark::State& state) {
  RecordBoundaryDiscoverer discoverer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(discoverer.Discover(Tree()));
  }
}
BENCHMARK(BM_DiscoveryStructuralOnly);

void BM_DiscoveryEndToEnd(benchmark::State& state) {
  StandaloneDiscoveryOptions options;
  options.estimator =
      MakeEstimatorForOntology(BundledOntology(Domain::kObituaries).value())
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverRecordBoundaries(Document(), options));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Document().size()));
}
BENCHMARK(BM_DiscoveryEndToEnd);

// Wrapper reuse: applying a learned site wrapper skips the five-heuristic
// vote; compare with BM_DiscoveryEndToEnd to see what amortizing discovery
// across a site's pages buys.
void BM_WrapperApply(benchmark::State& state) {
  WrapperEngine engine;
  SiteWrapper wrapper = engine.Learn(Document()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Apply(wrapper, Document()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Document().size()));
}
BENCHMARK(BM_WrapperApply);

void BM_RegexFindAll(benchmark::State& state) {
  Regex regex = Regex::Compile("\\b[0-9]{3}-[0-9]{4}\\b").value();
  const std::string text = Tree().PlainText(Tree().root());
  for (auto _ : state) {
    benchmark::DoNotOptimize(regex.FindAll(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_RegexFindAll);

void BM_RegexKeywordPhrase(benchmark::State& state) {
  RegexOptions ci;
  ci.case_insensitive = true;
  Regex regex = Regex::Compile("\\bpassed\\s+away\\s+on\\b", ci).value();
  const std::string text = Tree().PlainText(Tree().root());
  for (auto _ : state) {
    benchmark::DoNotOptimize(regex.CountMatches(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_RegexKeywordPhrase);

// Baseline comparison: the same scan with std::regex (backtracking
// ECMAScript engine). Our Pike VM trades constant-factor speed for
// guaranteed linearity; this benchmark quantifies the trade on realistic
// recognizer workloads.
void BM_StdRegexFindAll(benchmark::State& state) {
  const std::regex regex("\\b[0-9]{3}-[0-9]{4}\\b");
  const std::string text = Tree().PlainText(Tree().root());
  for (auto _ : state) {
    size_t count = 0;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), regex);
         it != std::sregex_iterator(); ++it) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StdRegexFindAll);

void BM_LexiconFindAll(benchmark::State& state) {
  Lexicon lexicon(gen::Mortuaries());
  const std::string text = Tree().PlainText(Tree().root());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lexicon.FindAll(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_LexiconFindAll);

constexpr Domain kRecognizerDomains[] = {Domain::kObituaries, Domain::kCarAds,
                                         Domain::kJobAds, Domain::kCourses};

// Plain text of the first test-site listing page of each bundled domain:
// the region text the recognizer scans in the pipeline.
const std::string& RecognizerText(Domain domain) {
  static const std::vector<std::string> texts = [] {
    std::vector<std::string> out;
    for (Domain d : kRecognizerDomains) {
      const std::string html =
          gen::RenderDocument(gen::TestSites(d)[0], d, 0).html;
      const TagTree tree = BuildTagTree(html).value();
      out.push_back(tree.PlainText(tree.root()));
    }
    return out;
  }();
  return texts[static_cast<size_t>(domain)];
}

// The one-pass recognizer over each domain (arg = Domain). CI's
// recognizer ratio guard asserts BM_Recognizer / BM_RecognizerLegacy per
// domain by bytes_per_second.
void BM_Recognizer(benchmark::State& state) {
  const Domain domain = static_cast<Domain>(state.range(0));
  auto recognizer = Recognizer::Create(BundledOntology(domain).value()).value();
  const std::string& text = RecognizerText(domain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recognizer.Recognize(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Recognizer)->DenseRange(0, 3);

// The frozen per-matcher recognizer (bench/legacy_recognizer_baseline.cc)
// over the same texts: the ratio guard's baseline.
void BM_RecognizerLegacy(benchmark::State& state) {
  const Domain domain = static_cast<Domain>(state.range(0));
  auto recognizer =
      bench::LegacyRecognizer::Create(BundledOntology(domain).value()).value();
  const std::string& text = RecognizerText(domain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recognizer.Recognize(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_RecognizerLegacy)->DenseRange(0, 3);

// The plain text of every page of a domain's paper corpora (calibration
// and test sets): what BM_RecognizerCorpus rotates through.
const std::vector<std::string>& RecognizerCorpusTexts(Domain domain) {
  static const std::vector<std::vector<std::string>> texts = [] {
    std::vector<std::vector<std::string>> out;
    for (Domain d : kRecognizerDomains) {
      std::vector<std::string>& domain_texts = out.emplace_back();
      std::vector<gen::GeneratedDocument> docs =
          gen::GenerateCalibrationCorpus(d);
      for (gen::GeneratedDocument& doc : gen::GenerateTestCorpus(d)) {
        docs.push_back(std::move(doc));
      }
      for (const gen::GeneratedDocument& doc : docs) {
        const TagTree tree = BuildTagTree(doc.html).value();
        domain_texts.push_back(tree.PlainText(tree.root()));
      }
    }
    return out;
  }();
  return texts[static_cast<size_t>(domain)];
}

// Recognizes the next text of the domain's corpus each iteration, so the
// warm per-thread state is measured across different documents, as in the
// pipeline, and not on one text scanned again (BM_Recognizer). CI's ratio
// guard asserts BM_RecognizerCorpus / BM_RecognizerCorpusLegacy per
// domain by bytes_per_second.
template <typename RecognizerType>
void RecognizeCorpus(benchmark::State& state) {
  const Domain domain = static_cast<Domain>(state.range(0));
  auto recognizer =
      RecognizerType::Create(BundledOntology(domain).value()).value();
  const std::vector<std::string>& texts = RecognizerCorpusTexts(domain);
  size_t next = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[next];
    next = next + 1 == texts.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(recognizer.Recognize(text));
    bytes += static_cast<int64_t>(text.size());
  }
  state.SetBytesProcessed(bytes);
}

void BM_RecognizerCorpus(benchmark::State& state) {
  RecognizeCorpus<Recognizer>(state);
}
BENCHMARK(BM_RecognizerCorpus)->DenseRange(0, 3);

void BM_RecognizerCorpusLegacy(benchmark::State& state) {
  RecognizeCorpus<bench::LegacyRecognizer>(state);
}
BENCHMARK(BM_RecognizerCorpusLegacy)->DenseRange(0, 3);

// Recognizer::Create for all four bundled ontologies: the compile cost a
// cold RecognizerCache pays (ontologies parsed once, outside the loop).
void BM_RecognizerCompile(benchmark::State& state) {
  std::vector<Ontology> ontologies;
  for (Domain d : kRecognizerDomains) {
    ontologies.push_back(BundledOntology(d).value());
  }
  for (auto _ : state) {
    for (const Ontology& ontology : ontologies) {
      benchmark::DoNotOptimize(Recognizer::Create(ontology));
    }
  }
}
BENCHMARK(BM_RecognizerCompile);

// One document's Database-Instance Generator input: its Data-Record Table
// in document offsets and the separator's cut positions, as the pipeline
// computes them for the first test-site listing page of `domain`.
struct DbgenInput {
  Ontology ontology;
  std::shared_ptr<const DatabaseInstanceGenerator> generator;
  DataRecordTable table;
  std::vector<size_t> cuts;
};

const DbgenInput& DbgenInputFor(Domain domain) {
  static const std::vector<DbgenInput> inputs = [] {
    std::vector<DbgenInput> out;
    for (Domain d : kRecognizerDomains) {
      DbgenInput input;
      input.ontology = BundledOntology(d).value();
      const std::string html =
          gen::RenderDocument(gen::TestSites(d)[0], d, 0).html;
      ContextOptions options;
      options.template_memoization = TemplateMemoization::kNever;
      const ExtractionContext context =
          ExtractionContext::Create(input.ontology, options).value();
      BufferSink sink;
      ExtractionOutcome outcome =
          context.ExtractDocumentInto(html, sink).value();
      const TagTree tree = BuildTagTree(html).value();
      const CandidateAnalysis analysis = ExtractCandidateTags(tree).value();
      input.cuts = TextIndex(tree, *analysis.subtree)
                       .SeparatorPositions(outcome.separator);
      input.table = std::move(outcome.table);
      input.generator = context.instance_generator();
      out.push_back(std::move(input));
    }
    return out;
  }();
  return inputs[static_cast<size_t>(domain)];
}

// The pipeline's dbgen step over one document (arg = Domain): partition
// the table at the cuts, drop the preamble and a trailing empty
// partition, assemble every record's fields. CI's dbgen ratio guard
// asserts BM_Dbgen / BM_DbgenLegacy per domain by items_per_second
// (entries).
void BM_Dbgen(benchmark::State& state) {
  const DbgenInput& input = DbgenInputFor(static_cast<Domain>(state.range(0)));
  for (auto _ : state) {
    std::vector<DataRecordTable> partitions =
        input.table.PartitionAt(input.cuts);
    partitions.erase(partitions.begin());
    while (!partitions.empty() && partitions.back().empty()) {
      partitions.pop_back();
    }
    for (const DataRecordTable& partition : partitions) {
      benchmark::DoNotOptimize(input.generator->FieldsFromTable(partition));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.table.size()));
}
BENCHMARK(BM_Dbgen)->DenseRange(0, 3);

// The frozen copying partition and map-based field assembly
// (bench/legacy_dbgen_baseline.cc) over the same inputs: the ratio
// guard's baseline.
void BM_DbgenLegacy(benchmark::State& state) {
  const DbgenInput& input = DbgenInputFor(static_cast<Domain>(state.range(0)));
  const bench::LegacyFieldAssembler legacy(input.ontology);
  const std::vector<DataRecordEntry> entries(input.table.entries().begin(),
                                             input.table.entries().end());
  for (auto _ : state) {
    std::vector<std::vector<DataRecordEntry>> partitions =
        bench::LegacyPartitionAt(entries, input.cuts);
    partitions.erase(partitions.begin());
    while (!partitions.empty() && partitions.back().empty()) {
      partitions.pop_back();
    }
    for (const std::vector<DataRecordEntry>& partition : partitions) {
      benchmark::DoNotOptimize(legacy.FieldsFromTable(partition));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_DbgenLegacy)->DenseRange(0, 3);

}  // namespace
}  // namespace webrbd

BENCHMARK_MAIN();
