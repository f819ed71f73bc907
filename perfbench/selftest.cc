// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Self-tests of the benchmark's measurement helpers:
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <vector>

#include "bench_support.h"

namespace perfbench {
namespace {

TEST(QuantileTest, ReportsValueSampleCountAndSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const QuantileEstimate p50 = Quantile(samples, 0.50);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const QuantileEstimate p99 = Quantile(samples, 0.99);
  EXPECT_NEAR(p99.value, 99.01, 1e-9);
  EXPECT_EQ(p99.beyond, 1u);  // a p99 over 100 samples is not supported
  EXPECT_EQ(Quantile({}, 0.5).samples, 0u);
}

TEST(QuantileTest, WindowedQuantileIgnoresOneStalledWindow) {
  std::vector<double> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 100; ++i) {
      samples.push_back(w == 2 ? 300.0 : 10.0 + i * 0.01);  // window 2 stalls
    }
  }
  const QuantileEstimate windowed = WindowedQuantile(samples, 0.99, 100);
  EXPECT_LT(windowed.value, 11.0);
  EXPECT_EQ(windowed.samples, 100u);
  EXPECT_GT(Quantile(samples, 0.99).value, 299.0);
  // A short tail joins the window before it.
  samples.push_back(10.0);
  EXPECT_LT(WindowedQuantile(samples, 0.99, 100).value, 11.0);
}

TEST(QuantileTest, StreamingWindowedQuantilesMatchWindowedQuantile) {
  for (size_t n : {0, 1, 99, 100, 199, 200, 201, 299, 300, 1234}) {
    std::vector<double> samples;
    StreamingWindowedQuantiles streaming({0.50, 0.99}, 100);
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<double>((i * 7919) % 1000));
      streaming.Add(samples.back());
    }
    for (size_t q = 0; q < 2; ++q) {
      const QuantileEstimate batch =
          WindowedQuantile(samples, q == 0 ? 0.50 : 0.99, 100);
      const QuantileEstimate online = streaming.Result(q);
      EXPECT_DOUBLE_EQ(online.value, batch.value) << "n=" << n;
      EXPECT_EQ(online.samples, batch.samples) << "n=" << n;
      EXPECT_EQ(online.beyond, batch.beyond) << "n=" << n;
    }
  }
}

TEST(QuantileTest, WindowedRateIsTheMedianWindowRate) {
  std::vector<int64_t> done;
  for (int i = 0; i < 300; ++i) done.push_back(i * 1'000'000);  // 1000/s
  EXPECT_NEAR(WindowedRate(done, 100), 1000.0, 1e-6);
}

TEST(TracerTest, SelfTimeSubtractsDirectChildrenOnly) {
  Tracer tracer;
  const int document = tracer.Begin(Layer::kDocument, 0);
  const int lex = tracer.Begin(Layer::kLexBalance, 10);
  tracer.End(lex, 30);
  const int discover = tracer.Begin(Layer::kDiscover, 40);
  const int rank = tracer.Begin(Layer::kRankOm, 50);
  tracer.End(rank, 60);
  tracer.End(discover, 90);
  tracer.End(document, 100);

  const auto self = tracer.SelfNs();
  EXPECT_EQ(self[static_cast<size_t>(Layer::kDocument)], 100 - 20 - 50);
  EXPECT_EQ(self[static_cast<size_t>(Layer::kLexBalance)], 20);
  EXPECT_EQ(self[static_cast<size_t>(Layer::kDiscover)], 50 - 10);
  EXPECT_EQ(self[static_cast<size_t>(Layer::kRankOm)], 10);
  EXPECT_EQ(tracer.Counts()[static_cast<size_t>(Layer::kDocument)], 1u);
  EXPECT_EQ(tracer.spans()[static_cast<size_t>(rank)].parent, discover);
}

TEST(TracerTest, SiblingSpansOfOneLayerAccumulate) {
  Tracer tracer;
  const int document = tracer.Begin(Layer::kDocument, 0);
  for (int64_t t = 0; t < 4; ++t) {
    const int append = tracer.Begin(Layer::kStoreAppend, 10 + 10 * t);
    tracer.End(append, 15 + 10 * t);
  }
  tracer.End(document, 60);
  const auto self = tracer.SelfNs();
  EXPECT_EQ(self[static_cast<size_t>(Layer::kStoreAppend)], 20);
  EXPECT_EQ(self[static_cast<size_t>(Layer::kDocument)], 40);
  EXPECT_EQ(tracer.Counts()[static_cast<size_t>(Layer::kStoreAppend)], 4u);
}

TEST(OpenLoopTest, DueTimesFollowTheFixedRate) {
  const OpenLoopSchedule schedule{200, 1'000};
  EXPECT_EQ(schedule.DueNs(0), 1'000);
  EXPECT_EQ(schedule.DueNs(3), 1'000 + 15'000'000);
  EXPECT_EQ(schedule.CountWithin(1.0), 200u);
  EXPECT_EQ(schedule.CountWithin(0.0125), 3u);
}

TEST(OpenLoopTest, LatencyRunsFromDueTimeAndLatenessIsTheGenerators) {
  RequestTiming t;
  t.due_ns = 1'000'000;
  t.dispatched_ns = 3'000'000;  // the generator ran 2 ms late
  t.done_ns = 13'000'000;
  t.ok = true;
  EXPECT_DOUBLE_EQ(LateMs(t), 2.0);
  EXPECT_DOUBLE_EQ(LatencyMs(t), 12.0);  // not 10: the lateness counts too
}

TEST(OpenLoopTest, RungVerdictChargesStallsAndFailures) {
  const OpenLoopSchedule schedule{100, 0};
  std::vector<RequestTiming> steady;
  for (size_t k = 0; k < 200; ++k) {
    RequestTiming t;
    t.due_ns = schedule.DueNs(k);
    t.dispatched_ns = t.due_ns;
    t.done_ns = t.due_ns + 5'000'000;
    t.ok = true;
    steady.push_back(t);
  }
  RungResult rung = EvaluateRung(steady, 100, 50, 200);
  EXPECT_TRUE(rung.meets_limit);
  EXPECT_NEAR(rung.p99_ms.value, 5.0, 1e-9);
  EXPECT_NEAR(rung.achieved_rate, 100.0, 1.0);

  // A 1 s stall: everything due during it completes at its end.
  std::vector<RequestTiming> stalled = steady;
  for (size_t k = 50; k < 150; ++k) stalled[k].done_ns = schedule.DueNs(150);
  rung = EvaluateRung(stalled, 100, 50, 200);
  EXPECT_FALSE(rung.meets_limit);
  EXPECT_GT(rung.p99_ms.value, 900.0);

  std::vector<RequestTiming> failing = steady;
  failing[7].ok = false;
  rung = EvaluateRung(failing, 100, 50, 200);
  EXPECT_EQ(rung.failed, 1u);
  EXPECT_FALSE(rung.meets_limit);
}

webrbd::PopulatedRecord Record(uint32_t document, uint32_t index,
                               const std::string& value) {
  webrbd::PopulatedRecord record;
  record.document_index = document;
  record.record_index = index;
  record.entity = "Deceased";
  record.fields = {{"DeceasedName", value}, {"Age", "81"}};
  return record;
}

uint64_t DigestOf(const std::vector<webrbd::PopulatedRecord>& records,
                  size_t documents) {
  DigestSink sink;
  for (const auto& record : records) EXPECT_TRUE(sink.Write(record).ok());
  std::vector<uint64_t> digests;
  for (uint32_t d = 0; d < documents; ++d) {
    digests.push_back(DocumentDigest("sep:hr", sink.DocumentHash(d)));
  }
  return CorpusDigest(digests);
}

TEST(DigestTest, PerturbedRecordChangesTheDigest) {
  const std::vector<webrbd::PopulatedRecord> records = {
      Record(0, 0, "Ann Smith"), Record(0, 1, "Bob Jones"),
      Record(1, 0, "Cy Young")};
  const uint64_t expected = DigestOf(records, 2);
  EXPECT_EQ(DigestOf(records, 2), expected);

  auto perturbed = records;
  perturbed[1].fields[0].second = "Bob Jonas";
  EXPECT_NE(DigestOf(perturbed, 2), expected);

  auto moved = records;  // same record delivered under another document
  moved[1].document_index = 1;
  EXPECT_NE(DigestOf(moved, 2), expected);

  auto reordered = records;  // records swapped within a document
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(DigestOf(reordered, 2), expected);

  EXPECT_NE(DocumentDigest("sep:hr", 1), DocumentDigest("sep:br", 1));
  EXPECT_NE(DocumentDigest("err:ResourceExhausted", 1),
            DocumentDigest("err:Internal", 1));
}

TEST(ResultJsonTest, KeepsEveryDigitAndTheContractKeys) {
  const std::string json =
      RenderResultJson(true, 10, 0, {{"docs_per_s", 0.1, "docs/s"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"docs_per_s\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"docs/s\"}}}");
}

}  // namespace
}  // namespace perfbench
