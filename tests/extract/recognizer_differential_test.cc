// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Differential test: the one-pass recognizer (deduplicated matchers, the
// literal-prefix automaton, the start-byte-skipping VM, the shared lexicon
// pass) must produce Data-Record Tables byte-identical to the frozen
// per-matcher recognizer in bench/legacy_recognizer_baseline.cc: the same
// entries with the same descriptor, value, begin, end and kind, in the same
// order. Every bundled ontology runs over every corpus: the paper's
// calibration and test sets, template-skew pages, and every adversarial
// shape, so each ontology also sees the other domains' text.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "extract/recognizer.h"
#include "gen/adversarial.h"
#include "gen/sites.h"
#include "gen/template_skew.h"
#include "html/tree_builder.h"
#include "legacy_recognizer_baseline.h"
#include "ontology/bundled.h"
#include "ontology/parser.h"
#include "util/rng.h"

namespace webrbd {
namespace {

constexpr Domain kDomains[] = {Domain::kObituaries, Domain::kCarAds,
                               Domain::kJobAds, Domain::kCourses};

// The recognizer's input in the pipeline is region plain text; the raw
// markup is scanned too, since a recognizer must handle any bytes.
void AddTexts(const std::string& html, std::vector<std::string>* texts) {
  auto tree = BuildTagTree(html);
  if (tree.ok()) texts->push_back(tree->PlainText(tree->root()));
  texts->push_back(html);
}

std::vector<std::string> PaperCorpusTexts() {
  std::vector<std::string> texts;
  for (Domain domain : {Domain::kObituaries, Domain::kCarAds}) {
    for (const auto& doc : gen::GenerateCalibrationCorpus(domain)) {
      AddTexts(doc.html, &texts);
    }
  }
  for (Domain domain : kDomains) {
    for (const auto& doc : gen::GenerateTestCorpus(domain)) {
      AddTexts(doc.html, &texts);
    }
  }
  return texts;
}

std::vector<std::string> TemplateSkewTexts() {
  gen::TemplateSkewOptions options;
  options.num_templates = 24;
  options.num_pages = 48;
  std::vector<std::string> texts;
  const gen::TemplateSkewCorpus corpus =
      gen::GenerateTemplateSkewCorpus(options);
  for (const std::string& page : corpus.pages) AddTexts(page, &texts);
  return texts;
}

std::vector<std::string> AdversarialTexts() {
  std::vector<std::string> texts;
  for (gen::AdversarialShape shape : gen::AllAdversarialShapes()) {
    AddTexts(gen::RenderAdversarialDocument(shape, 300), &texts);
  }
  return texts;
}

void ExpectSameTable(const DataRecordTable& expected,
                     const DataRecordTable& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const DataRecordEntry& e = expected.entries()[i];
    const DataRecordEntry& a = actual.entries()[i];
    ASSERT_TRUE(e.descriptor == a.descriptor && e.value == a.value &&
                e.begin == a.begin && e.end == a.end && e.kind == a.kind)
        << "entry " << i << ": expected " << e.descriptor << " '" << e.value
        << "' [" << e.begin << "," << e.end << ") kind "
        << static_cast<int>(e.kind) << ", got " << a.descriptor << " '"
        << a.value << "' [" << a.begin << "," << a.end << ") kind "
        << static_cast<int>(a.kind);
  }
}

enum class Corpus { kPaper, kTemplateSkew, kAdversarial };

std::vector<std::string> CorpusTexts(Corpus corpus) {
  switch (corpus) {
    case Corpus::kPaper: return PaperCorpusTexts();
    case Corpus::kTemplateSkew: return TemplateSkewTexts();
    case Corpus::kAdversarial: return AdversarialTexts();
  }
  return {};
}

struct Case {
  Domain ontology;
  Corpus corpus;
};

class RecognizerDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(RecognizerDifferentialTest, TablesAreByteIdentical) {
  const Case& c = GetParam();
  const Ontology ontology = BundledOntology(c.ontology).value();
  const Recognizer recognizer = Recognizer::Create(ontology).value();
  const bench::LegacyRecognizer legacy =
      bench::LegacyRecognizer::Create(ontology).value();

  const std::vector<std::string> texts = CorpusTexts(c.corpus);
  ASSERT_FALSE(texts.empty());
  size_t entries = 0;
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE("text " + std::to_string(i));
    const DataRecordTable expected = legacy.Recognize(texts[i]);
    ExpectSameTable(expected, recognizer.Recognize(texts[i]));
    entries += expected.size();
  }
  // Guard against a vacuous pass: every bundled ontology recognizes plenty
  // in the paper corpora. (Template-skew and adversarial pages carry little
  // domain text; they are here for the byte shapes, not the hit counts.)
  if (c.corpus == Corpus::kPaper) {
    EXPECT_GT(entries, 0u);
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (Domain domain : kDomains) {
    for (Corpus corpus :
         {Corpus::kPaper, Corpus::kTemplateSkew, Corpus::kAdversarial}) {
      cases.push_back(Case{domain, corpus});
    }
  }
  return cases;
}

// Texts dense in one matcher's literal prefix push it past the hit cap, so
// it falls back to the plain scan mid-document; the table must not change.
// (The cap is an eighth of the text: each flood below hits its prefix at
// least every 4 bytes.)
TEST(RecognizerDifferentialFloodTest, PrefixFloodFallsBackToPlainScan) {
  std::string dollars, ages, deaths;
  for (int i = 0; i < 4000; ++i) dollars += i % 97 == 0 ? "$4,500 " : "$";
  for (int i = 0; i < 2000; ++i) ages += i % 89 == 0 ? "age 42 " : "age ";
  for (int i = 0; i < 2000; ++i) deaths += i % 7 == 0 ? "died on " : "died ";
  for (Domain domain : kDomains) {
    const Ontology ontology = BundledOntology(domain).value();
    const Recognizer recognizer = Recognizer::Create(ontology).value();
    const bench::LegacyRecognizer legacy =
        bench::LegacyRecognizer::Create(ontology).value();
    for (const std::string* text : {&dollars, &ages, &deaths}) {
      SCOPED_TRACE(DomainName(domain) + ": " + text->substr(0, 12));
      ExpectSameTable(legacy.Recognize(*text), recognizer.Recognize(*text));
    }
  }
}

// Unprefiltered letter-led patterns scan with the reverse start-set
// automaton. Past its per-call state cap ((a|b){16}a read backwards has
// 2^17 states) or with starts outnumbering the hit cap (every letter of a
// letter run starts [a-z]+), a matcher falls back to the plain scan
// mid-document; a letter-led program too large for an automaton never
// has one. The table must not change.
TEST(RecognizerDifferentialStartSetTest, CapsFallBackToPlainScan) {
  const Ontology ontology = ParseOntology(
      "ontology Caps\nentity E\n\n"
      "objectset Blowup\n  pattern (a|b){16}a\nend\n\n"
      "objectset Word\n  pattern [a-z]+ [a-z]\nend\n\n"
      "objectset Name\n  pattern [A-Z][a-z]+ [A-Z]\\. [A-Z][a-z]+\nend\n\n"
      "objectset Long\n  pattern [a-z][a-z]{300}\nend\n")
      .value();
  const Recognizer recognizer = Recognizer::Create(ontology).value();
  const bench::LegacyRecognizer legacy =
      bench::LegacyRecognizer::Create(ontology).value();
  Rng rng(11, /*stream=*/0xca95);
  std::string ab, letters, mixed;
  for (int i = 0; i < 3000; ++i) ab += rng.Chance(0.5) ? 'a' : 'b';
  for (int i = 0; i < 3000; ++i) {
    letters += static_cast<char>('a' + rng.Below(26));
    if (rng.Chance(0.05)) letters += ' ';
  }
  for (int i = 0; i < 300; ++i) mixed += "Jane Q. Public ab ";
  for (const std::string* text : {&ab, &letters, &mixed}) {
    SCOPED_TRACE(text->substr(0, 12));
    ExpectSameTable(legacy.Recognize(*text), recognizer.Recognize(*text));
  }
}

// Texts dense in the required inner factors that digit-led and suffix
// patterns scan with (phone "-", time ":", ",000 miles", " credit hours",
// "years experience", " Systems|..."): factors at text start and end,
// overlapping windows, runs whose reverse scans never settle, and floods
// past the hit cap or the window budget. The table must not change.
TEST(RecognizerDifferentialFactorTest, FactorDenseTextsMatchLegacy) {
  std::vector<std::string> texts = {
      "-1234 at start", "call 555-", "-", ":", "12:", ":30",
      "555-1234-5678-9012 and 10:30:45:50 and 1,000,000 miles,000 miles",
      ",000 miles", "3 credit hours credit hours", "years experience",
      "5 years experience10 years experience",
      "Acme Systems Group Solutions Corporation", " Group",
      "Room 101 9:15 CS 101 555-0000"};
  std::string dashes, colons, digits, miles, companies;
  for (int i = 0; i < 3000; ++i) dashes += i % 53 == 0 ? " 555-1234 " : "1-";
  for (int i = 0; i < 3000; ++i) colons += i % 41 == 0 ? " 9:30 " : ":";
  for (int i = 0; i < 2000; ++i) digits += i % 37 == 0 ? "-" : "12-34:56";
  for (int i = 0; i < 800; ++i) miles += i % 9 == 0 ? "9,000 miles " : ",000 miles";
  for (int i = 0; i < 600; ++i) {
    companies += i % 5 == 0 ? "Acme Group " : " Group Systems";
  }
  for (const std::string* flood : {&dashes, &colons, &digits, &miles,
                                    &companies}) {
    texts.push_back(*flood);
  }
  for (Domain domain : kDomains) {
    const Ontology ontology = BundledOntology(domain).value();
    const Recognizer recognizer = Recognizer::Create(ontology).value();
    const bench::LegacyRecognizer legacy =
        bench::LegacyRecognizer::Create(ontology).value();
    for (const std::string& text : texts) {
      SCOPED_TRACE(DomainName(domain) + ": " + text.substr(0, 24));
      ExpectSameTable(legacy.Recognize(text), recognizer.Recognize(text));
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  static const char* kOntologies[] = {"Obituaries", "CarAds", "JobAds",
                                      "Courses"};
  static const char* kCorpora[] = {"Paper", "TemplateSkew", "Adversarial"};
  return std::string(kOntologies[static_cast<int>(info.param.ontology)]) +
         "_" + kCorpora[static_cast<int>(info.param.corpus)];
}

INSTANTIATE_TEST_SUITE_P(AllOntologiesAndCorpora, RecognizerDifferentialTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace webrbd
