// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// A const Recognizer is shared by threads without locks, and each thread
// keeps its own warm start-set DFAs keyed by recognizer id. Neither may
// change a table: threads sharing one recognizer, and one thread
// alternating recognizers, destroying one and building another, must
// produce what a fresh recognizer produces on one thread.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "extract/recognizer.h"
#include "gen/sites.h"
#include "html/tree_builder.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

constexpr Domain kDomains[] = {Domain::kObituaries, Domain::kCarAds,
                               Domain::kJobAds, Domain::kCourses};

// The plain text of the first pages of every domain's test corpus, so
// each recognizer also sees the other domains' text.
const std::vector<std::string>& Texts() {
  static const std::vector<std::string> texts = [] {
    std::vector<std::string> out;
    for (Domain domain : kDomains) {
      const auto corpus = gen::GenerateTestCorpus(domain);
      for (size_t i = 0; i < corpus.size() && i < 6; ++i) {
        auto tree = BuildTagTree(corpus[i].html);
        if (tree.ok()) out.push_back(tree->PlainText(tree->root()));
      }
    }
    return out;
  }();
  return texts;
}

// A table as comparable values: descriptor, value, span and kind.
using Row = std::tuple<std::string, std::string, size_t, size_t, int>;

std::vector<Row> Rows(const DataRecordTable& table) {
  std::vector<Row> rows;
  for (const DataRecordEntry& e : table.entries()) {
    rows.emplace_back(e.descriptor, e.value, e.begin, e.end,
                      static_cast<int>(e.kind));
  }
  return rows;
}

std::vector<std::vector<Row>> RecognizeAll(const Recognizer& recognizer) {
  std::vector<std::vector<Row>> tables;
  for (const std::string& text : Texts()) {
    tables.push_back(Rows(recognizer.Recognize(text)));
  }
  return tables;
}

TEST(RecognizerConcurrencyTest, FourThreadsShareOneRecognizer) {
  for (Domain domain : kDomains) {
    SCOPED_TRACE(DomainName(domain));
    const Recognizer recognizer =
        Recognizer::Create(BundledOntology(domain).value()).value();
    const std::vector<std::vector<Row>> expected = RecognizeAll(
        Recognizer::Create(BundledOntology(domain).value()).value());
    std::vector<std::vector<std::vector<Row>>> results(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t) {
      threads.emplace_back([&recognizer, &results, t] {
        // Twice: the second pass runs on warm DFAs.
        results[t] = RecognizeAll(recognizer);
        results[t] = RecognizeAll(recognizer);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < results.size(); ++t) {
      EXPECT_EQ(results[t], expected) << "thread " << t;
    }
  }
}

// One thread alternates two recognizers text by text, then destroys one
// and builds another (which may reuse its address), and round-robins six
// recognizers, so every call finds the other's DFAs; every table must
// equal a fresh recognizer's.
TEST(RecognizerConcurrencyTest, OneThreadAlternatesAndRebuildsRecognizers) {
  std::vector<std::vector<std::vector<Row>>> expected;
  for (Domain domain : kDomains) {
    expected.push_back(RecognizeAll(
        Recognizer::Create(BundledOntology(domain).value()).value()));
  }
  auto make = [](Domain domain) {
    return std::make_unique<Recognizer>(
        Recognizer::Create(BundledOntology(domain).value()).value());
  };
  auto first = make(Domain::kJobAds);
  auto second = make(Domain::kCourses);
  for (size_t i = 0; i < Texts().size(); ++i) {
    EXPECT_EQ(Rows(first->Recognize(Texts()[i])), expected[2][i]) << i;
    EXPECT_EQ(Rows(second->Recognize(Texts()[i])), expected[3][i]) << i;
  }
  for (int round = 0; round < 3; ++round) {
    first.reset();
    first = make(Domain::kJobAds);
    EXPECT_EQ(RecognizeAll(*first), expected[2]);
    EXPECT_EQ(RecognizeAll(*second), expected[3]);
  }
  // Six live recognizers, round robin.
  std::vector<std::unique_ptr<Recognizer>> many;
  for (int r = 0; r < 6; ++r) many.push_back(make(kDomains[r % 4]));
  for (size_t i = 0; i < Texts().size(); ++i) {
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(Rows(many[r]->Recognize(Texts()[i])), expected[r % 4][i])
          << "recognizer " << r << ", text " << i;
    }
  }
}

}  // namespace
}  // namespace webrbd
