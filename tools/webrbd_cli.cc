// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// webrbd command-line tool: record-boundary discovery, record extraction,
// database population, and document classification over HTML files.
//
//   webrbd_cli discover [options] FILE        show the separator consensus
//   webrbd_cli extract  [options] FILE        print the records
//   webrbd_cli populate [options] FILE        run the full pipeline
//   webrbd_cli classify [options] FILE        multi-record / detail / none
//   webrbd_cli batch    [options] DIR         batch pipeline over *.html in DIR
//   webrbd_cli store    --out F [options] DIR  persist extracted records into
//                                             a page-based record store
//   webrbd_cli query    --store F [options]   key-range scan over a store file
//   webrbd_cli demo                           run the paper's Figure 2
//
// Options:
//   --heuristics LETTERS   subset of ORSIH (default ORSIH)
//   --threshold FRACTION   candidate irrelevance threshold (default 0.10)
//   --ontology FILE        ontology DSL enabling OM and field extraction
//   --format FORMAT        extract: text|json   populate: table|csv|sql
//   --keep-leading         keep the chunk before the first separator
//   --threads N            batch: worker threads (default: all cores)
//   --chunk-size N         batch: documents per pool task (default: auto,
//                          ~4 tasks per worker; each task reuses one warm
//                          document arena across its chunk)
//   --generate N           batch: run over N generated obituary documents
//                          instead of a directory (no --ontology needed)
//   --generate-adversarial N  batch: append N deterministic adversarial
//                          documents (src/gen/adversarial.h) to the corpus;
//                          they must degrade per-document, never crash
//   --out FILE             store: the record-store file to create/append
//   --page-bytes N         store: page size for a NEW store file
//   --store FILE           query: the record-store file to scan
//   --min-key N            query: first ingest key of the range (inclusive)
//   --max-key N            query: last ingest key of the range (inclusive)
//   --entity NAME          query: keep only records of this entity table
//   --count                query: print only the number of matches
//   --max-doc-bytes N      override the document-size cap (0 = unlimited)
//   --max-depth N          override the tree-depth cap (0 = unlimited)
//   --unlimited            disable every per-document resource cap
//                          (see docs/robustness.md for the limit catalog)
//   --metrics-out FILE     enable pipeline metrics and write a snapshot to
//                          FILE after the command ("-" for stdout; a .prom
//                          suffix selects Prometheus text format, anything
//                          else gets JSON). See docs/observability.md.
//
// FILE may be "-" for stdin.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/document_classifier.h"
#include "core/record_extractor.h"
#include "db/export.h"
#include "eval/figure2.h"
#include "extract/extraction_context.h"
#include "extract/db_instance_generator.h"
#include "extract/record_sink.h"
#include "gen/adversarial.h"
#include "gen/sites.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "ontology/bundled.h"
#include "ontology/estimator.h"
#include "ontology/parser.h"
#include "robust/limits.h"
#include "serve/json_util.h"
#include "store/file_interface.h"
#include "store/record_store.h"

namespace webrbd {
namespace {

struct CliOptions {
  std::string command;
  std::string file;
  std::string heuristics = "ORSIH";
  double threshold = 0.10;
  std::string ontology_file;
  std::string format;
  bool keep_leading = false;
  int threads = 0;
  long long chunk_size = 0;
  int generate = 0;
  int generate_adversarial = 0;
  // batch: also write the assembled corpus to this directory as
  // doc_NNNN.html (how bench/bench_serve_load.py obtains real extractable
  // documents to POST at the daemon).
  std::string dump_corpus_dir;
  std::string metrics_out;
  // Snapshot format for --metrics-out; unset = infer from the extension.
  std::optional<obs::SnapshotFormat> metrics_format;
  // Resource-limit overrides; -1 = keep the mode's default for that cap.
  long long max_doc_bytes = -1;
  long long max_depth = -1;
  bool unlimited = false;
  // store/query: the record-store file (--out for store, --store for
  // query; separate flags because store CREATES and query must not).
  std::string store_path;
  long long store_page_bytes = -1;  // -1 = store default (new files only)
  long long min_key = -1;           // query: -1 = from the first record
  long long max_key = -1;           // query: -1 = through the last record
  std::string entity_filter;        // query: keep only this entity
  bool count_only = false;          // query: print only the match count
  // Every flag the command line named, for per-command strict validation.
  std::vector<std::string> seen_flags;
};

// The effective per-document limits: production defaults (or none, under
// --unlimited), with any explicit per-cap overrides applied on top.
robust::DocumentLimits LimitsFromCli(const CliOptions& cli) {
  robust::DocumentLimits limits = cli.unlimited
                                      ? robust::DocumentLimits::Unlimited()
                                      : robust::DocumentLimits::Production();
  if (cli.max_doc_bytes >= 0) {
    limits.max_document_bytes = static_cast<size_t>(cli.max_doc_bytes);
  }
  if (cli.max_depth >= 0) {
    limits.max_tree_depth = static_cast<size_t>(cli.max_depth);
  }
  return limits;
}

// Strict parsing for integer-valued flags: the whole value must be one
// non-negative decimal integer within [0, max_value]. The previous
// strtol(v, nullptr, 10) calls silently turned "--threads abc" into 0 and
// ignored trailing garbage ("--generate 10x"); every such input is a
// usage error now.
bool ParseCount(const char* flag, const char* v, long long max_value,
                long long* out) {
  if (v == nullptr || *v == '\0') {
    std::fprintf(stderr, "%s: missing value\n", flag);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "%s: expected a decimal integer, got \"%s\"\n", flag,
                 v);
    return false;
  }
  if (errno == ERANGE || parsed < 0 || parsed > max_value) {
    std::fprintf(stderr, "%s: value out of range [0, %lld]: \"%s\"\n", flag,
                 max_value, v);
    return false;
  }
  *out = parsed;
  return true;
}

// Same discipline for fractional flags (--threshold): full-string parse,
// finite, non-negative.
bool ParseFraction(const char* flag, const char* v, double* out) {
  if (v == nullptr || *v == '\0') {
    std::fprintf(stderr, "%s: missing value\n", flag);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(parsed >= 0.0)) {
    std::fprintf(stderr, "%s: expected a non-negative number, got \"%s\"\n",
                 flag, v);
    return false;
  }
  *out = parsed;
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: webrbd_cli COMMAND [options] FILE\n"
      "commands: discover | extract | populate | classify | batch | store |\n"
      "          query | demo\n"
      "options:  --heuristics LETTERS  --threshold FRACTION\n"
      "          --ontology FILE  --format FORMAT  --keep-leading\n"
      "          --threads N  --chunk-size N  --generate N\n"
      "          --generate-adversarial N  --dump-corpus DIR  (batch/store)\n"
      "          --out FILE  --page-bytes N  (store)\n"
      "          --store FILE  --min-key N  --max-key N  --entity NAME\n"
      "          --count  (query)\n"
      "          --max-doc-bytes N  --max-depth N  --unlimited\n"
      "          --metrics-out FILE  (any command; .prom = Prometheus text)\n"
      "          --metrics-format json|prom  (overrides the extension rule;\n"
      "            the only way to pick a format for --metrics-out -)\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  if (argc < 2) return false;
  options->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (!arg.empty() && arg[0] == '-' && arg != "-") {
      options->seen_flags.push_back(arg);
    }
    if (arg == "--heuristics") {
      const char* v = next();
      if (v == nullptr) return false;
      options->heuristics = v;
    } else if (arg == "--threshold") {
      if (!ParseFraction("--threshold", next(), &options->threshold)) {
        return false;
      }
    } else if (arg == "--ontology") {
      const char* v = next();
      if (v == nullptr) return false;
      options->ontology_file = v;
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr) return false;
      options->format = v;
    } else if (arg == "--keep-leading") {
      options->keep_leading = true;
    } else if (arg == "--threads") {
      long long threads = 0;
      if (!ParseCount("--threads", next(), INT_MAX, &threads)) return false;
      options->threads = static_cast<int>(threads);
    } else if (arg == "--chunk-size") {
      if (!ParseCount("--chunk-size", next(), LLONG_MAX,
                      &options->chunk_size)) {
        return false;
      }
    } else if (arg == "--generate") {
      long long n = 0;
      if (!ParseCount("--generate", next(), INT_MAX, &n)) return false;
      options->generate = static_cast<int>(n);
    } else if (arg == "--generate-adversarial") {
      long long n = 0;
      if (!ParseCount("--generate-adversarial", next(), INT_MAX, &n)) {
        return false;
      }
      options->generate_adversarial = static_cast<int>(n);
    } else if (arg == "--dump-corpus") {
      const char* v = next();
      if (v == nullptr) return false;
      options->dump_corpus_dir = v;
    } else if (arg == "--max-doc-bytes") {
      // -1 stays the internal "keep the mode's default" sentinel; the user
      // can only set values >= 0 (0 = unlimited).
      if (!ParseCount("--max-doc-bytes", next(), LLONG_MAX,
                      &options->max_doc_bytes)) {
        return false;
      }
    } else if (arg == "--max-depth") {
      if (!ParseCount("--max-depth", next(), LLONG_MAX, &options->max_depth)) {
        return false;
      }
    } else if (arg == "--unlimited") {
      options->unlimited = true;
    } else if (arg == "--out" || arg == "--store") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::fprintf(stderr, "%s: missing value\n", arg.c_str());
        return false;
      }
      options->store_path = v;
    } else if (arg == "--page-bytes") {
      if (!ParseCount("--page-bytes", next(), LLONG_MAX,
                      &options->store_page_bytes)) {
        return false;
      }
    } else if (arg == "--min-key") {
      if (!ParseCount("--min-key", next(), LLONG_MAX, &options->min_key)) {
        return false;
      }
    } else if (arg == "--max-key") {
      if (!ParseCount("--max-key", next(), LLONG_MAX, &options->max_key)) {
        return false;
      }
    } else if (arg == "--entity") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::fprintf(stderr, "--entity: missing value\n");
        return false;
      }
      options->entity_filter = v;
    } else if (arg == "--count") {
      options->count_only = true;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options->metrics_out = v;
    } else if (arg == "--metrics-format") {
      const char* v = next();
      if (v == nullptr) return false;
      obs::SnapshotFormat format;
      if (!obs::ParseSnapshotFormat(v, &format)) {
        std::fprintf(stderr,
                     "--metrics-format: expected json or prom, got \"%s\"\n",
                     v);
        return false;
      }
      options->metrics_format = format;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else {
      options->file = arg;
    }
  }
  return true;
}

Result<std::string> ReadInput(const std::string& file) {
  if (file == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream in(file, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + file);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Builds discovery options (and, when an ontology is given, the OM
// estimator) from the CLI flags.
Result<StandaloneDiscoveryOptions> MakeDiscoveryOptions(
    const CliOptions& cli, std::optional<Ontology>* ontology_out) {
  StandaloneDiscoveryOptions options;
  options.heuristics = cli.heuristics;
  options.candidate_options.irrelevance_threshold = cli.threshold;
  options.limits = LimitsFromCli(cli);
  if (!cli.ontology_file.empty()) {
    auto text = ReadInput(cli.ontology_file);
    if (!text.ok()) return text.status();
    auto ontology = ParseOntology(*text);
    if (!ontology.ok()) return ontology.status();
    auto estimator = MakeEstimatorForOntology(*ontology);
    if (!estimator.ok()) return estimator.status();
    options.estimator = std::move(estimator).value();
    if (ontology_out != nullptr) *ontology_out = std::move(ontology).value();
  }
  return options;
}

int RunDiscover(const CliOptions& cli) {
  auto html = ReadInput(cli.file);
  if (!html.ok()) {
    std::fprintf(stderr, "%s\n", html.status().ToString().c_str());
    return 1;
  }
  std::optional<Ontology> ontology;
  auto options = MakeDiscoveryOptions(cli, &ontology);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  auto discovery = DiscoverRecordBoundaries(*html, *options);
  if (!discovery.ok()) {
    std::fprintf(stderr, "%s\n", discovery.status().ToString().c_str());
    return 1;
  }
  const DiscoveryResult& result = discovery->result;
  std::printf("separator: <%s>\n", result.separator.c_str());
  std::printf("region: <%s> fan-out %zu\n",
              std::string(result.analysis.subtree->name).c_str(),
              result.analysis.subtree->fanout());
  std::printf("compound ranking:\n");
  for (const CompoundRankedTag& ranked : result.compound_ranking) {
    std::printf("  <%s>  %.2f%%\n", ranked.tag.c_str(),
                100.0 * ranked.certainty);
  }
  std::printf("individual heuristics:\n");
  for (const HeuristicResult& heuristic : result.heuristic_results) {
    std::printf("  %s:", heuristic.heuristic_name.c_str());
    if (heuristic.ranking.empty()) std::printf(" (no answer)");
    for (const RankedTag& ranked : heuristic.ranking) {
      std::printf(" %s=%d", ranked.tag.c_str(), ranked.rank);
    }
    std::printf("\n");
  }
  return 0;
}

int RunExtract(const CliOptions& cli) {
  auto html = ReadInput(cli.file);
  if (!html.ok()) {
    std::fprintf(stderr, "%s\n", html.status().ToString().c_str());
    return 1;
  }
  auto options = MakeDiscoveryOptions(cli, nullptr);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  RecordExtractorOptions extractor_options;
  extractor_options.drop_leading_chunk = !cli.keep_leading;
  auto records =
      ExtractRecordsFromDocument(*html, *options, extractor_options);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 1;
  }
  if (cli.format == "json") {
    std::printf("[\n");
    for (size_t i = 0; i < records->size(); ++i) {
      std::printf("  {\"index\": %zu, \"begin\": %zu, \"end\": %zu, "
                  "\"text\": \"%s\"}%s\n",
                  i, (*records)[i].begin, (*records)[i].end,
                  JsonEscape((*records)[i].text).c_str(),
                  i + 1 < records->size() ? "," : "");
    }
    std::printf("]\n");
  } else {
    for (size_t i = 0; i < records->size(); ++i) {
      std::printf("--- record %zu ---\n%s\n", i + 1,
                  (*records)[i].text.c_str());
    }
  }
  return 0;
}

int RunPopulate(const CliOptions& cli) {
  if (cli.ontology_file.empty()) {
    std::fprintf(stderr, "populate requires --ontology FILE\n");
    return 2;
  }
  auto html = ReadInput(cli.file);
  if (!html.ok()) {
    std::fprintf(stderr, "%s\n", html.status().ToString().c_str());
    return 1;
  }
  std::optional<Ontology> ontology;
  auto options = MakeDiscoveryOptions(cli, &ontology);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  auto records = ExtractRecordsFromDocument(*html, *options);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 1;
  }
  auto generator = DatabaseInstanceGenerator::Create(*ontology);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  auto catalog = generator->Populate(*records);
  if (!catalog.ok()) {
    std::fprintf(stderr, "%s\n", catalog.status().ToString().c_str());
    return 1;
  }
  if (cli.format == "csv") {
    for (const std::string& name : catalog->TableNames()) {
      std::printf("-- %s --\n%s\n", name.c_str(),
                  db::ToCsv(*catalog->GetTable(name)).c_str());
    }
  } else if (cli.format == "sql") {
    std::printf("%s", db::ToSqlDump(*catalog).c_str());
  } else {
    std::printf("%s", catalog->ToString().c_str());
  }
  return 0;
}

int RunClassify(const CliOptions& cli) {
  auto html = ReadInput(cli.file);
  if (!html.ok()) {
    std::fprintf(stderr, "%s\n", html.status().ToString().c_str());
    return 1;
  }
  std::optional<Ontology> ontology;
  auto options = MakeDiscoveryOptions(cli, &ontology);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  auto tree = BuildTagTree(*html, options->limits);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  ClassificationResult result =
      ClassifyDocument(*tree, options->estimator.get());
  std::printf("%s (%s)\n", DocumentClassName(result.document_class).c_str(),
              result.rationale.c_str());
  return 0;
}

// Assembles the corpus a corpus-level command (`batch`, `store`) runs
// over: --generate/--generate-adversarial synthesize documents against
// the bundled obituaries ontology; otherwise FILE names a directory of
// .html files and --ontology is required. Returns 0 and fills the out
// parameters, or the exit code to fail with.
int AssembleCorpus(const CliOptions& cli, const char* command,
                   std::vector<std::string>* corpus_out,
                   std::vector<std::string>* names_out,
                   std::optional<Ontology>* ontology_out) {
  std::optional<Ontology>& ontology = *ontology_out;
  std::vector<std::string>& corpus = *corpus_out;
  std::vector<std::string>& names = *names_out;
  if (cli.generate > 0 || cli.generate_adversarial > 0) {
    // Synthetic corpus: obituary listing pages cycled across the Table 1
    // calibration sites, with the bundled obituaries ontology; optionally
    // followed by deterministic adversarial documents that must degrade
    // per-document (kResourceExhausted / recovered), never crash.
    auto bundled = BundledOntology(Domain::kObituaries);
    if (!bundled.ok()) {
      std::fprintf(stderr, "%s\n", bundled.status().ToString().c_str());
      return 1;
    }
    ontology = std::move(bundled).value();
    const auto& sites = gen::CalibrationSites();
    corpus.reserve(
        static_cast<size_t>(cli.generate + cli.generate_adversarial));
    for (int i = 0; i < cli.generate; ++i) {
      const auto& site = sites[static_cast<size_t>(i) % sites.size()];
      corpus.push_back(
          gen::RenderDocument(site, Domain::kObituaries,
                              i / static_cast<int>(sites.size()))
              .html);
      names.push_back("generated:" + std::to_string(i));
    }
    if (cli.generate_adversarial > 0) {
      const auto& shapes = gen::AllAdversarialShapes();
      std::vector<std::string> adversarial = gen::AdversarialCorpus(
          static_cast<size_t>(cli.generate_adversarial));
      for (size_t i = 0; i < adversarial.size(); ++i) {
        corpus.push_back(std::move(adversarial[i]));
        names.push_back(
            "adversarial:" +
            std::string(gen::AdversarialShapeName(shapes[i % shapes.size()])));
      }
    }
  } else {
    if (cli.ontology_file.empty()) {
      std::fprintf(stderr, "%s requires --ontology FILE (or --generate N)\n",
                   command);
      return 2;
    }
    if (cli.file.empty()) {
      std::fprintf(stderr, "%s requires a directory of HTML files\n", command);
      return 2;
    }
    auto text = ReadInput(cli.ontology_file);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto parsed = ParseOntology(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    ontology = std::move(parsed).value();

    std::error_code ec;
    std::filesystem::directory_iterator dir(cli.file, ec);
    if (ec) {
      std::fprintf(stderr, "cannot read directory %s: %s\n", cli.file.c_str(),
                   ec.message().c_str());
      return 1;
    }
    for (const auto& entry : dir) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".html" && ext != ".htm") continue;
      names.push_back(entry.path().string());
    }
    std::sort(names.begin(), names.end());
    corpus.reserve(names.size());
    for (const std::string& name : names) {
      auto html = ReadInput(name);
      if (!html.ok()) {
        std::fprintf(stderr, "%s\n", html.status().ToString().c_str());
        return 1;
      }
      corpus.push_back(std::move(html).value());
    }
    if (corpus.empty()) {
      std::fprintf(stderr, "no .html/.htm files in %s\n", cli.file.c_str());
      return 1;
    }
  }

  if (!cli.dump_corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.dump_corpus_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n",
                   cli.dump_corpus_dir.c_str(), ec.message().c_str());
      return 1;
    }
    for (size_t i = 0; i < corpus.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "doc_%04zu.html", i);
      const std::filesystem::path path =
          std::filesystem::path(cli.dump_corpus_dir) / name;
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << corpus[i];
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
        return 1;
      }
    }
  }
  return 0;
}

// The `batch` subcommand: the batch-extraction engine over a directory of
// HTML files (or --generate N synthetic obituary documents), printing the
// corpus stats table. See docs/performance.md.
int RunBatch(const CliOptions& cli) {
  std::vector<std::string> corpus;
  std::vector<std::string> names;
  std::optional<Ontology> ontology;
  const int assembled = AssembleCorpus(cli, "batch", &corpus, &names,
                                       &ontology);
  if (assembled != 0) return assembled;

  ContextOptions options;
  options.discovery.heuristics = cli.heuristics;
  options.discovery.candidate_options.irrelevance_threshold = cli.threshold;
  options.discovery.limits = LimitsFromCli(cli);
  auto context = ExtractionContext::Create(*ontology, options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }
  BatchRunOptions run;
  run.num_threads = cli.threads;
  run.chunk_size = static_cast<size_t>(cli.chunk_size);
  // Materialize catalogs through the sink so a document whose records fail
  // to populate still counts as failed.
  CatalogSink sink(context->instance_generator());
  auto batch = context->ExtractCorpusInto(corpus, sink, run);
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }
  size_t populate_failures = 0;
  // Name the failing documents so corpus triage doesn't need a rerun.
  for (size_t i = 0; i < batch->documents.size(); ++i) {
    const std::string& label = i < names.size() ? names[i] : std::to_string(i);
    if (batch->documents[i].ok()) {
      auto catalog = sink.TakeCatalog(static_cast<uint32_t>(i));
      if (!catalog.ok()) {
        ++populate_failures;
        std::fprintf(stderr, "failed %s: %s\n", label.c_str(),
                     catalog.status().ToString().c_str());
      }
      continue;
    }
    std::fprintf(stderr, "failed %s: %s\n", label.c_str(),
                 batch->documents[i].status().ToString().c_str());
  }
  batch->stats.succeeded -= populate_failures;
  batch->stats.failed += populate_failures;
  std::printf("%s", batch->stats.ToString().c_str());
  return batch->stats.failed == 0 ? 0 : 1;
}

// store and query sit next to real data, where a silently ignored flag is
// a likely operator mistake (--max-key on `store` probably meant `query`),
// so unlike the older commands they reject every flag outside their own
// set instead of shrugging it off.
bool ValidateStrictFlags(const CliOptions& cli) {
  static const std::vector<std::string_view> kStoreFlags = {
      "--out", "--page-bytes", "--ontology", "--generate",
      "--generate-adversarial", "--dump-corpus", "--threads", "--chunk-size",
      "--heuristics", "--threshold", "--max-doc-bytes", "--max-depth",
      "--unlimited", "--metrics-out", "--metrics-format"};
  static const std::vector<std::string_view> kQueryFlags = {
      "--store", "--min-key", "--max-key", "--entity", "--count", "--format",
      "--metrics-out", "--metrics-format"};
  const std::vector<std::string_view>* allowed = nullptr;
  if (cli.command == "store") allowed = &kStoreFlags;
  if (cli.command == "query") allowed = &kQueryFlags;
  if (allowed == nullptr) return true;
  bool ok = true;
  for (const std::string& flag : cli.seen_flags) {
    if (std::find(allowed->begin(), allowed->end(), flag) == allowed->end()) {
      std::fprintf(stderr, "%s does not accept %s\n", cli.command.c_str(),
                   flag.c_str());
      ok = false;
    }
  }
  return ok;
}

// The `store` subcommand: run the batch-extraction engine over a corpus
// (same sources as `batch`) and persist every extracted record into a
// page-based record store (docs/storage.md). The engine's end-of-batch
// Flush makes the file durable before the command returns.
int RunStore(const CliOptions& cli) {
  if (!ValidateStrictFlags(cli)) return 2;
  if (cli.store_path.empty()) {
    std::fprintf(stderr, "store requires --out FILE\n");
    return 2;
  }
  if (cli.store_page_bytes >= 0 &&
      (static_cast<size_t>(cli.store_page_bytes) < store::kMinPageSize ||
       static_cast<size_t>(cli.store_page_bytes) > store::kMaxPageSize)) {
    std::fprintf(stderr, "--page-bytes: %lld is outside [%zu, %zu]\n",
                 cli.store_page_bytes, store::kMinPageSize,
                 store::kMaxPageSize);
    return 2;
  }

  std::vector<std::string> corpus;
  std::vector<std::string> names;
  std::optional<Ontology> ontology;
  const int assembled = AssembleCorpus(cli, "store", &corpus, &names,
                                       &ontology);
  if (assembled != 0) return assembled;

  auto backend = store::OpenPosixFile(cli.store_path, /*create=*/true);
  if (!backend.ok()) {
    std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
    return 1;
  }
  store::StoreOptions store_options;
  if (cli.store_page_bytes >= 0) {
    store_options.page_size = static_cast<size_t>(cli.store_page_bytes);
  }
  auto opened =
      store::RecordStore::Open(std::move(backend).value(), store_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  store::RecordStore& record_store = **opened;
  const uint64_t first_key = record_store.record_count();

  ContextOptions options;
  options.discovery.heuristics = cli.heuristics;
  options.discovery.candidate_options.irrelevance_threshold = cli.threshold;
  options.discovery.limits = LimitsFromCli(cli);
  auto context = ExtractionContext::Create(*ontology, options);
  if (!context.ok()) {
    std::fprintf(stderr, "%s\n", context.status().ToString().c_str());
    return 1;
  }
  BatchRunOptions run;
  run.num_threads = cli.threads;
  run.chunk_size = static_cast<size_t>(cli.chunk_size);
  StoreSink sink(&record_store);
  auto batch = context->ExtractCorpusInto(corpus, sink, run);
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < batch->documents.size(); ++i) {
    if (batch->documents[i].ok()) continue;
    const std::string& label = i < names.size() ? names[i] : std::to_string(i);
    std::fprintf(stderr, "failed %s: %s\n", label.c_str(),
                 batch->documents[i].status().ToString().c_str());
  }
  std::printf("%s", batch->stats.ToString().c_str());
  std::printf("stored %llu record(s) in %s (keys %llu..%llu, %llu pages, "
              "%zu index segments)\n",
              static_cast<unsigned long long>(sink.records_written()),
              cli.store_path.c_str(),
              static_cast<unsigned long long>(first_key),
              static_cast<unsigned long long>(
                  record_store.record_count() == first_key
                      ? first_key
                      : record_store.record_count() - 1),
              static_cast<unsigned long long>(record_store.page_count()),
              record_store.index_segments());
  return batch->stats.failed == 0 ? 0 : 1;
}

// The `query` subcommand: key-range (and optional entity) scan over an
// existing store file, in a fresh process — what recovery and the learned
// index exist for.
int RunQuery(const CliOptions& cli) {
  if (!ValidateStrictFlags(cli)) return 2;
  if (cli.store_path.empty()) {
    std::fprintf(stderr, "query requires --store FILE\n");
    return 2;
  }
  if (!cli.file.empty()) {
    std::fprintf(stderr, "query takes no positional argument (did you mean "
                         "--store %s?)\n", cli.file.c_str());
    return 2;
  }
  if (cli.min_key >= 0 && cli.max_key >= 0 && cli.min_key > cli.max_key) {
    std::fprintf(stderr, "--min-key %lld exceeds --max-key %lld\n",
                 cli.min_key, cli.max_key);
    return 2;
  }
  const std::string format = cli.format.empty() ? "text" : cli.format;
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "query --format must be text or json, got %s\n",
                 format.c_str());
    return 2;
  }

  auto backend = store::OpenPosixFile(cli.store_path, /*create=*/false);
  if (!backend.ok()) {
    std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
    return 1;
  }
  auto opened = store::RecordStore::Open(std::move(backend).value());
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  store::RecordStore& record_store = **opened;
  if (record_store.torn_pages_recovered() > 0) {
    std::fprintf(stderr, "recovered: dropped %llu torn page(s)\n",
                 static_cast<unsigned long long>(
                     record_store.torn_pages_recovered()));
  }

  store::ScanOptions scan;
  if (cli.min_key >= 0) scan.min_key = static_cast<uint64_t>(cli.min_key);
  if (cli.max_key >= 0) scan.max_key = static_cast<uint64_t>(cli.max_key);
  if (!cli.entity_filter.empty()) {
    scan.filter = [&cli](const store::StoredRecord& record) {
      return record.entity == cli.entity_filter;
    };
  }
  auto it = record_store.Scan(scan);
  store::StoredRecord record;
  uint64_t key = 0;
  unsigned long long matches = 0;
  while (it.Next(&record, &key)) {
    ++matches;
    if (cli.count_only) continue;
    if (format == "json") {
      std::string line = "{\"key\":" + std::to_string(key);
      line += ",\"document\":" + std::to_string(record.document_index);
      line += ",\"record\":" + std::to_string(record.record_index);
      line += ",\"entity\":" + serve::JsonString(record.entity);
      line += ",\"fields\":[";
      for (size_t i = 0; i < record.fields.size(); ++i) {
        if (i > 0) line += ",";
        line += "[" + serve::JsonString(record.fields[i].first) + "," +
                serve::JsonString(record.fields[i].second) + "]";
      }
      line += "]}";
      std::printf("%s\n", line.c_str());
    } else {
      std::printf("key=%llu document=%u record=%u entity=%s\n",
                  static_cast<unsigned long long>(key), record.document_index,
                  record.record_index, record.entity.c_str());
      for (const auto& field : record.fields) {
        std::printf("  %s: %s\n", field.first.c_str(), field.second.c_str());
      }
    }
  }
  if (!it.status().ok()) {
    std::fprintf(stderr, "%s\n", it.status().ToString().c_str());
    return 1;
  }
  if (cli.count_only) {
    std::printf("%llu\n", matches);
  } else {
    std::fprintf(stderr, "%llu record(s) matched\n", matches);
  }
  return 0;
}

int RunDemo() {
  std::printf("Running the paper's Figure 2 worked example.\n\n");
  auto discovery = DiscoverRecordBoundaries(Figure2Document());
  if (!discovery.ok()) {
    std::fprintf(stderr, "%s\n", discovery.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\nseparator: <%s>\n", discovery->tree.ToAsciiArt().c_str(),
              discovery->result.separator.c_str());
  return 0;
}

// Writes the global metrics snapshot to cli.metrics_out ("-" = stdout).
// An explicit --metrics-format wins; otherwise a .prom suffix selects
// Prometheus text format and anything else JSON. The explicit flag is the
// only way to get Prometheus text on stdout — "-" has no extension to
// infer from, which used to silently force JSON. Returns false when the
// file cannot be written.
bool WriteMetricsSnapshot(const CliOptions& cli) {
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const std::string& path = cli.metrics_out;
  obs::SnapshotFormat format = obs::SnapshotFormat::kJson;
  if (cli.metrics_format.has_value()) {
    format = *cli.metrics_format;
  } else if (path.size() >= 5 &&
             path.compare(path.size() - 5, 5, ".prom") == 0) {
    format = obs::SnapshotFormat::kPrometheus;
  }
  const std::string body = obs::RenderSnapshot(snapshot, format);
  if (path == "-") {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write metrics to %s\n", path.c_str());
    return false;
  }
  out << body;
  return out.good();
}

int Dispatch(const CliOptions& cli) {
  if (cli.command == "demo") return RunDemo();
  if (cli.command == "batch") return RunBatch(cli);
  if (cli.command == "store") return RunStore(cli);
  if (cli.command == "query") return RunQuery(cli);
  if (cli.file.empty()) return Usage();
  if (cli.command == "discover") return RunDiscover(cli);
  if (cli.command == "extract") return RunExtract(cli);
  if (cli.command == "populate") return RunPopulate(cli);
  if (cli.command == "classify") return RunClassify(cli);
  std::fprintf(stderr, "unknown command: %s\n", cli.command.c_str());
  return Usage();
}

int Main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return Usage();
  if (!cli.metrics_out.empty()) {
    obs::SetMetricsEnabled(true);
    // Pre-register the documented catalog so the snapshot carries every
    // contract metric even when a command never touches a subsystem.
    obs::EnsureDocumentedMetricsRegistered();
  }
  int status = Dispatch(cli);
  if (!cli.metrics_out.empty() && !WriteMetricsSnapshot(cli) && status == 0) {
    status = 1;
  }
  return status;
}

}  // namespace
}  // namespace webrbd

int main(int argc, char** argv) { return webrbd::Main(argc, argv); }
