// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Golden equivalence suite for the ExtractionContext API: the
// single-document path (with a private arena and with a reused caller
// arena) and the batch engine at 1 and 8 threads must all produce
// byte-identical outcomes — same separator, same partitions, same catalog
// dump through a CatalogSink — on the generator corpora.

#include "extract/extraction_context.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "db/export.h"
#include "extract/record_sink.h"
#include "gen/sites.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

std::vector<std::string> SmallCorpus(Domain domain, int documents) {
  const auto& sites = gen::CalibrationSites();
  std::vector<std::string> corpus;
  corpus.reserve(static_cast<size_t>(documents));
  for (int i = 0; i < documents; ++i) {
    const auto& site = sites[static_cast<size_t>(i) % sites.size()];
    corpus.push_back(
        gen::RenderDocument(site, domain, i / static_cast<int>(sites.size()))
            .html);
  }
  return corpus;
}

// The byte-comparable projection of one document's extraction: separator,
// partition boundaries/sizes, and the full SQL dump of its catalog.
std::string Golden(const ExtractionOutcome& result,
                   const db::Catalog& catalog) {
  std::string out = "separator=" + result.separator + "\n";
  out += "table_entries=" + std::to_string(result.table.size()) + "\n";
  for (const DataRecordTable& partition : result.partitions) {
    out += "partition=" + std::to_string(partition.size()) + "\n";
  }
  out += db::ToSqlDump(catalog);
  return out;
}

// Extracts `html` into a fresh CatalogSink and projects the result.
Result<std::string> ExtractGolden(const ExtractionContext& context,
                                  const std::string& html) {
  CatalogSink sink(context.instance_generator());
  auto outcome = context.ExtractDocumentInto(html, sink);
  if (!outcome.ok()) return outcome.status();
  auto catalog = sink.TakeCatalog();
  if (!catalog.ok()) return catalog.status();
  return Golden(*outcome, *catalog);
}

class ExtractionContextGoldenTest : public ::testing::TestWithParam<Domain> {};

TEST_P(ExtractionContextGoldenTest, CallerArenaMatchesPrivateArena) {
  const Ontology ontology = BundledOntology(GetParam()).value();
  const std::vector<std::string> corpus = SmallCorpus(GetParam(), 6);

  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  DocumentArena arena;
  for (const std::string& html : corpus) {
    auto golden = ExtractGolden(*context, html);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();

    // Arena-reuse path: same bytes out of a warm arena.
    arena.Reset();
    CatalogSink sink(context->instance_generator());
    auto via_arena = context->ExtractDocumentInto(html, arena, sink);
    ASSERT_TRUE(via_arena.ok()) << via_arena.status().ToString();
    auto catalog = sink.TakeCatalog();
    ASSERT_TRUE(catalog.ok());
    EXPECT_EQ(Golden(*via_arena, *catalog), *golden);
  }
}

TEST_P(ExtractionContextGoldenTest, BatchMatchesSingleAcrossThreadCounts) {
  const Ontology ontology = BundledOntology(GetParam()).value();
  const std::vector<std::string> corpus = SmallCorpus(GetParam(), 8);

  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  std::vector<std::string> singles;
  singles.reserve(corpus.size());
  for (const std::string& html : corpus) {
    auto single = ExtractGolden(*context, html);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    singles.push_back(*single);
  }

  for (int threads : {1, 8}) {
    BatchRunOptions run;
    run.num_threads = threads;
    run.chunk_size = 2;  // several chunks, arena reused within each
    CatalogSink sink(context->instance_generator());
    auto batch = context->ExtractCorpusInto(corpus, sink, run);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->documents.size(), corpus.size());
    EXPECT_EQ(batch->stats.succeeded, corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      ASSERT_TRUE(batch->documents[i].ok());
      auto catalog = sink.TakeCatalog(static_cast<uint32_t>(i));
      ASSERT_TRUE(catalog.ok());
      EXPECT_EQ(Golden(*batch->documents[i], *catalog), singles[i])
          << "threads=" << threads << " doc=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, ExtractionContextGoldenTest,
                         ::testing::Values(Domain::kObituaries,
                                           Domain::kCarAds),
                         [](const ::testing::TestParamInfo<Domain>& info) {
                           std::string name = DomainName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ExtractionContextTest, CreateFailsOnUncompilableOntology) {
  ObjectSet broken;
  broken.name = "Broken";
  broken.frame.value_patterns = {"(unclosed"};
  Ontology ontology("broken", "Entity", {broken});
  auto context = ExtractionContext::Create(ontology);
  EXPECT_FALSE(context.ok());
}

TEST(ExtractionContextTest, UsesTheProvidedCache) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  RecognizerCache cache;
  ContextOptions options;
  options.cache = &cache;
  auto context = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // A second context over the same cache hits.
  auto second = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ExtractionContextTest, ExtractDocumentFailsOnTaglessInput) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());
  BufferSink sink;
  auto result = context->ExtractDocumentInto("no markup at all", sink);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace webrbd
