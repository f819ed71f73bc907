// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The RecordSink output abstraction: sink semantics (buffering, catalog
// materialization with per-document error isolation, teeing, store
// appends) and the corpus delivery contract — deterministic,
// thread-count-independent record order, down to byte-identical store
// files at 1 and 8 worker threads.

#include "extract/record_sink.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extract/extraction_context.h"
#include "gen/sites.h"
#include "ontology/bundled.h"
#include "store/file_interface.h"
#include "store/record_store.h"

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

/// Fails every Nth write; counts attempts. For TeeSink/error-path tests.
class FlakySink final : public RecordSink {
 public:
  explicit FlakySink(size_t fail_at) : fail_at_(fail_at) {}

  [[nodiscard]] Status Write(const PopulatedRecord&) override {
    if (++writes_ == fail_at_) return Status::Internal("flaky sink");
    return Status::OK();
  }

  size_t writes() const { return writes_; }

 private:
  size_t fail_at_;
  size_t writes_ = 0;
};

std::string DumpStoreBytes(store::FileInterface* file, size_t page_size) {
  auto size = file->SizeBytes();
  EXPECT_TRUE(size.ok());
  std::string bytes;
  std::string page(page_size, '\0');
  for (uint64_t i = 0; i < *size / page_size; ++i) {
    EXPECT_TRUE(file->ReadPage(i, page_size, page.data()).ok());
    bytes += page;
  }
  return bytes;
}

TEST(BufferSinkTest, KeepsDeliveryOrder) {
  BufferSink sink;
  for (uint32_t i = 0; i < 5; ++i) {
    PopulatedRecord record;
    record.document_index = i / 2;
    record.record_index = i % 2;
    record.entity = "E" + std::to_string(i);
    ASSERT_TRUE(sink.Write(record).ok());
  }
  ASSERT_EQ(sink.records().size(), 5u);
  EXPECT_EQ(sink.records()[3].entity, "E3");
  auto taken = sink.TakeRecords();
  EXPECT_EQ(taken.size(), 5u);
  EXPECT_TRUE(sink.records().empty());
}

TEST(CatalogSinkTest, NullGeneratorFailsWrites) {
  CatalogSink sink(nullptr);
  PopulatedRecord record;
  EXPECT_EQ(sink.Write(record).code(), Status::Code::kFailedPrecondition);
  EXPECT_FALSE(sink.TakeCatalog().ok());
}

TEST(CatalogSinkTest, GroupsByDocumentAndIsolatesErrors) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());
  CatalogSink sink(context->instance_generator());

  // Two healthy documents' records interleaved with one record whose
  // fields are garbage for the scheme (unknown attribute name).
  PopulatedRecord good;
  good.document_index = 0;
  good.record_index = 0;
  good.entity = ontology.entity_name();
  PopulatedRecord bad = good;
  bad.document_index = 1;
  bad.fields = {{"no-such-attribute", "x"}};
  PopulatedRecord also_good = good;
  also_good.document_index = 2;

  ASSERT_TRUE(sink.Write(good).ok());
  ASSERT_TRUE(sink.Write(bad).ok());  // error parks, Write stays OK
  ASSERT_TRUE(sink.Write(also_good).ok());

  EXPECT_TRUE(sink.TakeCatalog(0).ok());
  EXPECT_FALSE(sink.TakeCatalog(1).ok());  // the parked insert error
  EXPECT_TRUE(sink.TakeCatalog(2).ok());
  // A document that never delivered records yields an empty catalog, not
  // an error.
  auto empty = sink.TakeCatalog(99);
  ASSERT_TRUE(empty.ok());
}

TEST(TeeSinkTest, StopsAtFirstFailingSink) {
  BufferSink first;
  FlakySink flaky(/*fail_at=*/2);
  BufferSink last;
  TeeSink tee({&first, &flaky, &last});

  PopulatedRecord record;
  ASSERT_TRUE(tee.Write(record).ok());
  EXPECT_EQ(last.records().size(), 1u);
  EXPECT_FALSE(tee.Write(record).ok());  // flaky fails its 2nd write
  EXPECT_EQ(first.records().size(), 2u);  // upstream of the failure: wrote
  EXPECT_EQ(last.records().size(), 1u);   // downstream: skipped
}

TEST(StoreSinkTest, CountsAndPropagatesBackendErrors) {
  store::StoreOptions options;
  options.page_size = 256;
  auto opened = store::RecordStore::Open(store::MakeMemoryFile(), options);
  ASSERT_TRUE(opened.ok());
  StoreSink sink(opened->get());

  PopulatedRecord record;
  record.entity = "E";
  ASSERT_TRUE(sink.Write(record).ok());
  EXPECT_EQ(sink.records_written(), 1u);

  // An oversize record fails the store append — StoreSink must propagate,
  // not swallow.
  record.fields = {{"f", std::string(4096, 'x')}};
  EXPECT_FALSE(sink.Write(record).ok());
  EXPECT_EQ(sink.records_written(), 1u);
  EXPECT_TRUE(sink.Flush().ok());
}

TEST(CorpusDeliveryTest, RecordOrderIsGroupedAndThreadCountIndependent) {
  const Ontology ontology = BundledOntology(Domain::kCarAds).value();
  const std::vector<std::string> corpus = SmallCorpus(Domain::kCarAds, 8);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());

  std::vector<PopulatedRecord> baseline;
  for (int threads : {1, 8}) {
    BatchRunOptions run;
    run.num_threads = threads;
    run.chunk_size = 2;
    BufferSink sink;
    auto batch = context->ExtractCorpusInto(corpus, sink, run);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->stats.succeeded, corpus.size());
    const auto records = sink.TakeRecords();
    EXPECT_EQ(batch->records_delivered, records.size());

    // Grouped by document in input order, dense record indexes within.
    uint32_t expected_doc = 0;
    uint32_t expected_record = 0;
    for (const PopulatedRecord& record : records) {
      if (record.document_index != expected_doc) {
        EXPECT_EQ(record.document_index, expected_doc + 1);
        expected_doc = record.document_index;
        expected_record = 0;
      }
      EXPECT_EQ(record.record_index, expected_record++);
    }
    EXPECT_EQ(expected_doc, corpus.size() - 1);

    if (threads == 1) {
      baseline = records;
    } else {
      ASSERT_EQ(records.size(), baseline.size());
      for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_TRUE(records[i] == baseline[i]) << "record " << i;
      }
    }
  }
}

TEST(CorpusDeliveryTest, StoreFilesAreByteIdenticalAcrossThreadCounts) {
  // The satellite's determinism requirement end to end: ingest the same
  // corpus through ExtractCorpusInto at 1 and 8 threads and compare the
  // resulting store files byte for byte.
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  const std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 6);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());

  std::string baseline_bytes;
  for (int threads : {1, 8}) {
    store::StoreOptions options;
    options.page_size = 512;
    auto file = store::MakeMemoryFile();
    store::FileInterface* raw = file.get();
    auto opened = store::RecordStore::Open(std::move(file), options);
    ASSERT_TRUE(opened.ok());
    StoreSink sink(opened->get());

    BatchRunOptions run;
    run.num_threads = threads;
    run.chunk_size = 2;
    auto batch = context->ExtractCorpusInto(corpus, sink, run);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    // ExtractCorpusInto flushes the sink once after the last record, so
    // the backend already holds every page.
    EXPECT_EQ((*opened)->pending_records(), 0u);
    EXPECT_EQ((*opened)->record_count(), batch->records_delivered);

    const std::string bytes = DumpStoreBytes(raw, options.page_size);
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      baseline_bytes = bytes;
    } else {
      EXPECT_EQ(bytes, baseline_bytes) << "store bytes differ at " << threads
                                       << " threads";
    }
  }
}

TEST(CorpusDeliveryTest, FailedDocumentsDeliverNothing) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  corpus.insert(corpus.begin() + 1, "no markup at all");  // will fail

  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());
  BufferSink sink;
  auto batch = context->ExtractCorpusInto(corpus, sink, {});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats.failed, 1u);
  EXPECT_FALSE(batch->documents[1].ok());
  for (const PopulatedRecord& record : sink.records()) {
    EXPECT_NE(record.document_index, 1u);
  }
}

TEST(CorpusDeliveryTest, SinkWriteFailureFailsTheBatch) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  const std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());

  FlakySink sink(/*fail_at=*/3);
  auto batch = context->ExtractCorpusInto(corpus, sink, {});
  EXPECT_FALSE(batch.ok());  // the sink's backend is gone: whole call fails
}

}  // namespace
}  // namespace webrbd
