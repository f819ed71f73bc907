// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Differential test: partitioning a Data-Record Table (shared entry array,
// one merge) and assembling each record's fields (constants resolved by
// pointer, field info by object-set index) must reproduce the frozen
// pre-shared-storage code in bench/legacy_dbgen_baseline.cc exactly: the
// same partitions with the same entries, and the same field vectors in the
// same order. Runs every bundled ontology over the paper corpora,
// template-skew and adversarial pages at the pipeline's own cuts, plus
// seeded random tables built to hit every resolution rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "core/candidate_tags.h"
#include "extract/db_instance_generator.h"
#include "extract/extraction_context.h"
#include "extract/record_sink.h"
#include "gen/adversarial.h"
#include "gen/sites.h"
#include "gen/template_skew.h"
#include "html/text_index.h"
#include "html/tree_builder.h"
#include "legacy_dbgen_baseline.h"
#include "ontology/bundled.h"
#include "util/rng.h"

namespace webrbd {
namespace {

bool SameEntry(const DataRecordEntry& a, const DataRecordEntry& b) {
  return a.descriptor == b.descriptor && a.value == b.value &&
         a.begin == b.begin && a.end == b.end && a.kind == b.kind;
}

// Partitions `table` at `cuts` both ways and compares every partition and
// its assembled fields. Returns the number of fields assembled.
size_t ExpectSameDbgen(const DatabaseInstanceGenerator& generator,
                       const bench::LegacyFieldAssembler& legacy,
                       const DataRecordTable& table,
                       const std::vector<size_t>& cuts) {
  const std::vector<DataRecordEntry> all(table.entries().begin(),
                                         table.entries().end());
  const std::vector<std::vector<DataRecordEntry>> expected =
      bench::LegacyPartitionAt(all, cuts);
  const std::vector<DataRecordTable> actual = table.PartitionAt(cuts);
  EXPECT_EQ(expected.size(), actual.size());
  if (expected.size() != actual.size()) return 0;
  size_t fields = 0;
  for (size_t p = 0; p < expected.size(); ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    EXPECT_EQ(expected[p].size(), actual[p].size());
    if (expected[p].size() != actual[p].size()) return fields;
    for (size_t i = 0; i < expected[p].size(); ++i) {
      EXPECT_TRUE(SameEntry(expected[p][i], actual[p].entries()[i]))
          << "entry " << i << ": expected " << expected[p][i].descriptor
          << " '" << expected[p][i].value << "' @" << expected[p][i].begin;
    }
    const auto want = legacy.FieldsFromTable(expected[p]);
    EXPECT_EQ(want, generator.FieldsFromTable(actual[p]));
    fields += want.size();
  }
  return fields;
}

std::vector<std::string> PaperPages() {
  std::vector<std::string> pages;
  for (Domain domain : {Domain::kObituaries, Domain::kCarAds}) {
    for (const auto& doc : gen::GenerateCalibrationCorpus(domain)) {
      pages.push_back(doc.html);
    }
  }
  for (Domain domain : kAllDomains) {
    for (const auto& doc : gen::GenerateTestCorpus(domain)) {
      pages.push_back(doc.html);
    }
  }
  return pages;
}

std::vector<std::string> TemplateSkewPages() {
  gen::TemplateSkewOptions options;
  options.num_templates = 24;
  options.num_pages = 48;
  return gen::GenerateTemplateSkewCorpus(options).pages;
}

std::vector<std::string> AdversarialPages() {
  std::vector<std::string> pages;
  for (gen::AdversarialShape shape : gen::AllAdversarialShapes()) {
    pages.push_back(gen::RenderAdversarialDocument(shape, 300));
  }
  return pages;
}

enum class Corpus { kPaper, kTemplateSkew, kAdversarial };

struct Case {
  Domain ontology;
  Corpus corpus;
};

class DbgenDifferentialTest : public ::testing::TestWithParam<Case> {};

// Each page's document-offset table from the pipeline, cut at its
// separator's positions as the pipeline cuts it, and again at every third
// entry's begin plus a duplicate and a past-the-end cut.
TEST_P(DbgenDifferentialTest, PartitionsAndFieldsMatchFrozenBaseline) {
  const Case& c = GetParam();
  const Ontology ontology = BundledOntology(c.ontology).value();
  ContextOptions options;
  options.template_memoization = TemplateMemoization::kNever;
  const ExtractionContext context =
      ExtractionContext::Create(ontology, options).value();
  const DatabaseInstanceGenerator& generator = *context.instance_generator();
  const bench::LegacyFieldAssembler legacy(ontology);

  std::vector<std::string> pages;
  switch (c.corpus) {
    case Corpus::kPaper: pages = PaperPages(); break;
    case Corpus::kTemplateSkew: pages = TemplateSkewPages(); break;
    case Corpus::kAdversarial: pages = AdversarialPages(); break;
  }
  size_t fields = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    SCOPED_TRACE("page " + std::to_string(i));
    BufferSink sink;
    auto outcome = context.ExtractDocumentInto(pages[i], sink);
    if (!outcome.ok()) continue;  // an adversarial page over a limit
    auto tree = BuildTagTree(pages[i], options.discovery.limits);
    ASSERT_TRUE(tree.ok());
    auto analysis =
        ExtractCandidateTags(*tree, options.discovery.candidate_options);
    ASSERT_TRUE(analysis.ok());
    const TextIndex index(*tree, *analysis->subtree);
    fields += ExpectSameDbgen(generator, legacy, outcome->table,
                              index.SeparatorPositions(outcome->separator));

    std::vector<size_t> cuts;
    const auto entries = outcome->table.entries();
    for (size_t e = 0; e < entries.size(); e += 3) {
      cuts.push_back(entries[e].begin);
      if (e == 3) cuts.push_back(entries[e].begin);
    }
    cuts.push_back(pages[i].size() + 1);
    fields += ExpectSameDbgen(generator, legacy, outcome->table, cuts);
  }
  if (c.corpus == Corpus::kPaper) {
    EXPECT_GT(fields, 0u);
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (Domain domain : kAllDomains) {
    for (Corpus corpus :
         {Corpus::kPaper, Corpus::kTemplateSkew, Corpus::kAdversarial}) {
      cases.push_back(Case{domain, corpus});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  static const char* kOntologies[] = {"Obituaries", "CarAds", "JobAds",
                                      "Courses"};
  static const char* kCorpora[] = {"Paper", "TemplateSkew", "Adversarial"};
  return std::string(kOntologies[static_cast<int>(info.param.ontology)]) +
         "_" + kCorpora[static_cast<int>(info.param.corpus)];
}

INSTANTIATE_TEST_SUITE_P(AllOntologiesAndCorpora, DbgenDifferentialTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// An ontology with every field kind the resolution rules tell apart:
// keyword-bearing functional and one-to-one fields, and keywordless
// many-valued ones (which may claim contested spans by value alone).
Ontology ResolutionOntology() {
  auto field = [](std::string name, Cardinality cardinality,
                  std::vector<std::string> keywords) {
    ObjectSet set;
    set.name = std::move(name);
    set.cardinality = cardinality;
    set.frame.keywords = std::move(keywords);
    set.frame.value_patterns = {"[0-9]+"};
    return set;
  };
  return Ontology("resolution", "Thing",
                  {field("Alpha", Cardinality::kFunctional, {"alpha"}),
                   field("Beta", Cardinality::kFunctional, {"beta"}),
                   field("Gamma", Cardinality::kMany, {}),
                   field("Delta", Cardinality::kMany, {}),
                   field("Eps", Cardinality::kOneToOne, {"eps"}),
                   field("Zeta", Cardinality::kMany, {"zeta"})});
}

const char* const kDescriptors[] = {"Alpha", "Beta",  "Gamma", "Delta",
                                    "Eps",   "Zeta",  "Unknown"};
const char* const kValues[] = {"7", "42", "x", "Seven", "7 ", "forty-two"};

// Dense random tables: few begins and lengths, so spans are shared and
// contested; few values, so many-valued duplicates recur; keywords close
// enough to claim, or not; object-set hints right, missing or wrong.
class DbgenRandomTableTest : public ::testing::TestWithParam<int> {};

TEST_P(DbgenRandomTableTest, PartitionsAndFieldsMatchFrozenBaseline) {
  const int seed = GetParam();
  const Ontology ontology = ResolutionOntology();
  const DatabaseInstanceGenerator generator =
      DatabaseInstanceGenerator::Create(ontology).value();
  const bench::LegacyFieldAssembler legacy(ontology);
  Rng rng(static_cast<uint64_t>(seed), /*stream=*/0xdb6e);

  std::vector<DataRecordEntry> entries(rng.Below(320));
  const uint32_t span = 8 + rng.Below(120);
  for (DataRecordEntry& entry : entries) {
    const uint32_t d = rng.Below(std::size(kDescriptors));
    entry.descriptor = kDescriptors[d];
    entry.value = kValues[rng.Below(std::size(kValues))];
    entry.begin = rng.Below(span);
    entry.end = entry.begin + rng.Below(4);
    entry.kind = rng.Chance(0.25) ? MatchKind::kKeyword : MatchKind::kConstant;
    const uint32_t hint = rng.Below(10);
    entry.object_set = hint < 6   ? d
                       : hint < 8 ? DataRecordEntry::kNoObjectSet
                                  : rng.Below(9);
  }
  const DataRecordTable table(std::move(entries));

  std::vector<size_t> cuts(rng.Below(9));
  for (size_t& cut : cuts) {
    // Half the cuts land on an entry's begin; duplicates recur.
    cut = !table.empty() && rng.Chance(0.5)
              ? table.entries()[rng.Below(
                                    static_cast<uint32_t>(table.size()))]
                    .begin
              : rng.Below(span + 8);
  }
  std::sort(cuts.begin(), cuts.end());
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ExpectSameDbgen(generator, legacy, table, cuts);
  ExpectSameDbgen(generator, legacy, table, {});
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbgenRandomTableTest, ::testing::Range(0, 64));

// More than 16 resolved constants share one begin: std::sort then
// partitions instead of insertion-sorting, and the field order depends on
// its tie order, which the resolved sequence must feed it unchanged.
TEST(DbgenDifferentialTest, ManyResolvedConstantsWithEqualBegin) {
  const Ontology ontology = ResolutionOntology();
  const DatabaseInstanceGenerator generator =
      DatabaseInstanceGenerator::Create(ontology).value();
  const bench::LegacyFieldAssembler legacy(ontology);
  std::vector<DataRecordEntry> entries;
  for (size_t i = 0; i < 40; ++i) {
    DataRecordEntry entry;
    entry.descriptor = i % 2 == 0 ? "Gamma" : "Delta";
    entry.value = "v" + std::to_string(i);
    entry.begin = i < 30 ? 10 : 20;
    entry.end = entry.begin + 1 + i;
    entries.push_back(entry);
  }
  const DataRecordTable table(std::move(entries));
  EXPECT_GT(ExpectSameDbgen(generator, legacy, table, {5, 15}), 16u);
}

}  // namespace
}  // namespace webrbd
