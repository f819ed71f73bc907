// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/integrated_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/record_extractor.h"
#include "eval/figure2.h"
#include "extract/db_instance_generator.h"
#include "gen/sites.h"
#include "html/text_index.h"
#include "html/tree_builder.h"
#include "ontology/bundled.h"
#include "ontology/estimator.h"

namespace webrbd {
namespace {

TEST(TextIndexTest, MapsTextOffsetsToDocumentOffsets) {
  const std::string doc = "<td>abc<b>DEF</b>ghi</td>";
  TagTree tree = BuildTagTree(doc).value();
  const TagNode& td = *tree.root().children[0];
  TextIndex index(tree, td);
  // td is block-level: its own boundary byte leads the text.
  EXPECT_EQ(index.text(), "\nabcDEFghi");
  // "abc" starts at text offset 1 -> document offset 4.
  EXPECT_EQ(index.ToDocumentOffset(1), 4u);
  EXPECT_EQ(index.ToDocumentOffset(3), 6u);
  // "DEF" starts at text offset 4 -> document offset 10 (inside <b>).
  EXPECT_EQ(index.ToDocumentOffset(4), 10u);
  // "ghi" at text offset 7 -> document offset 17 (after </b>).
  EXPECT_EQ(index.ToDocumentOffset(7), 17u);
  EXPECT_EQ(doc.substr(index.ToDocumentOffset(4), 3), "DEF");
  EXPECT_EQ(doc.substr(index.ToDocumentOffset(7), 3), "ghi");
}

TEST(TextIndexTest, SeparatorPositionsMatchDocument) {
  const std::string doc = "<td><hr>one<hr>two<hr></td>";
  TagTree tree = BuildTagTree(doc).value();
  TextIndex index(tree, *tree.root().children[0]);
  auto positions = index.SeparatorPositions("hr");
  ASSERT_EQ(positions.size(), 3u);
  for (size_t position : positions) {
    EXPECT_EQ(doc.substr(position, 4), "<hr>");
  }
  EXPECT_TRUE(index.SeparatorPositions("p").empty());
}

TEST(TextIndexTest, EmptyRegion) {
  TagTree tree = BuildTagTree("<td></td>").value();
  TextIndex index(tree, *tree.root().children[0]);
  EXPECT_EQ(index.text(), "\n");  // just the td boundary byte
}

// The cursor the DRT step repositions entries with maps exactly like
// ToDocumentOffset: ascending offsets, a copy resumed from a begin for its
// end, and an offset below the previous one.
TEST(TextIndexTest, CursorMatchesToDocumentOffset) {
  const std::string doc = Figure2Document();
  TagTree tree = BuildTagTree(doc).value();
  TextIndex index(tree, tree.root());
  TextIndex::Cursor cursor(index);
  for (size_t offset = 0; offset <= index.text().size(); ++offset) {
    ASSERT_EQ(cursor.ToDocumentOffset(offset), index.ToDocumentOffset(offset))
        << offset;
    TextIndex::Cursor end_cursor = cursor;
    const size_t end = std::min(offset + 17, index.text().size());
    ASSERT_EQ(end_cursor.ToDocumentOffset(end), index.ToDocumentOffset(end))
        << end;
  }
  EXPECT_EQ(cursor.ToDocumentOffset(3), index.ToDocumentOffset(3));
}

TEST(IntegratedPipelineTest, Figure2EndToEnd) {
  auto ontology = BundledOntology(Domain::kObituaries).value();
  auto result = RunIntegratedPipeline(Figure2Document(), ontology);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->separator, "hr");
  // Three records between the four <hr>s (the empty tail partition after
  // the trailing <hr> is dropped).
  ASSERT_EQ(result->partitions.size(), 3u);
  // Table entries carry DOCUMENT positions: each value slices the source.
  const std::string doc = Figure2Document();
  for (const DataRecordEntry& entry : result->table.entries()) {
    ASSERT_LE(entry.end, doc.size());
    // Values recognized across inline tags may span markup in document
    // space; check containment of the first word instead of equality.
    const std::string first_word =
        entry.value.substr(0, entry.value.find(' '));
    EXPECT_EQ(doc.compare(entry.begin, first_word.size(), first_word), 0)
        << entry.descriptor << " @" << entry.begin << " = " << entry.value;
  }

  const db::Table* deceased = result->catalog.GetTable("Deceased");
  ASSERT_NE(deceased, nullptr);
  ASSERT_EQ(deceased->row_count(), 3u);
  const db::Schema& schema = deceased->schema();
  EXPECT_EQ(deceased->rows()[0][*schema.ColumnIndex("DeceasedName")]
                .AsString(),
            "Lemar K. Adamson");
  EXPECT_EQ(deceased->rows()[0][*schema.ColumnIndex("DeathDate")].AsString(),
            "September 30, 1998");
}

TEST(IntegratedPipelineTest, AgreesWithPerRecordPipeline) {
  // The integrated flow (recognize once, partition) and the naive flow
  // (re-recognize per record) must populate equivalent entity tables.
  auto ontology = BundledOntology(Domain::kCarAds).value();
  for (int doc_index : {0, 1}) {
    gen::GeneratedDocument doc = gen::RenderDocument(
        gen::CalibrationSites()[0], Domain::kCarAds, doc_index);

    auto integrated = RunIntegratedPipeline(doc.html, ontology);
    ASSERT_TRUE(integrated.ok()) << integrated.status().ToString();

    StandaloneDiscoveryOptions options;
    options.estimator = MakeEstimatorForOntology(ontology).value();
    auto records = ExtractRecordsFromDocument(doc.html, options);
    ASSERT_TRUE(records.ok());
    auto generator = DatabaseInstanceGenerator::Create(ontology).value();
    auto naive = generator.Populate(*records);
    ASSERT_TRUE(naive.ok());

    const db::Table* a = integrated->catalog.GetTable("Car");
    const db::Table* b = naive->GetTable("Car");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // The integrated flow keeps empty trailing partitions that the record
    // extractor drops; compare the overlapping prefix.
    const size_t rows = std::min(a->row_count(), b->row_count());
    ASSERT_GE(rows, 10u);
    size_t cells = 0;
    size_t equal = 0;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 1; c < a->schema().column_count(); ++c) {  // skip id
        ++cells;
        if (a->rows()[r][c] == b->rows()[r][c]) ++equal;
      }
    }
    // Boundary effects (matches whose keyword window crosses a separator)
    // may differ in a handful of cells; demand near-perfect agreement.
    EXPECT_GE(equal * 100, cells * 98)
        << "doc " << doc_index << ": " << equal << "/" << cells;
  }
}

TEST(IntegratedPipelineTest, OmEstimateMatchesTextEstimator) {
  // The table-derived O(d) estimate must equal the text-scan estimate —
  // same regexes, same text.
  auto ontology = BundledOntology(Domain::kObituaries).value();
  gen::GeneratedDocument doc = gen::RenderDocument(
      gen::CalibrationSites()[0], Domain::kObituaries, 0);

  auto integrated = RunIntegratedPipeline(doc.html, ontology);
  ASSERT_TRUE(integrated.ok());
  // Reconstruct what the text-based estimator sees.
  auto tree = BuildTagTree(doc.html).value();
  auto analysis = ExtractCandidateTags(tree).value();
  auto estimator = MakeEstimatorForOntology(ontology).value();
  auto text_estimate =
      estimator->EstimateRecordCount(tree.PlainText(*analysis.subtree));
  ASSERT_TRUE(text_estimate.has_value());

  // OM's ranking in the integrated run must match a run with the text
  // estimator (identical estimates produce identical rankings).
  StandaloneDiscoveryOptions options;
  options.estimator = estimator;
  RecordBoundaryDiscoverer discoverer(options);
  auto reference = discoverer.Discover(tree).value();
  ASSERT_EQ(integrated->discovery.heuristic_results[0].heuristic_name, "OM");
  EXPECT_EQ(integrated->discovery.heuristic_results[0].ranking.size(),
            reference.heuristic_results[0].ranking.size());
  for (size_t i = 0;
       i < integrated->discovery.heuristic_results[0].ranking.size(); ++i) {
    EXPECT_EQ(integrated->discovery.heuristic_results[0].ranking[i].tag,
              reference.heuristic_results[0].ranking[i].tag);
  }
}

TEST(IntegratedPipelineTest, FailsOnTaglessInput) {
  auto ontology = BundledOntology(Domain::kCarAds).value();
  auto result = RunIntegratedPipeline("no markup at all", ontology);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace webrbd
