// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "ontology/parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace webrbd {
namespace {

constexpr char kSample[] = R"(
# A tiny ontology for tests.
ontology Test
entity Thing

objectset Name
  cardinality one-to-one
  type name
  pattern [A-Z][a-z]+
end

objectset When
  cardinality functional
  type date
  keyword happened on
  keyword took place on
  lexicon Monday, Tuesday
end

objectset Tag
  cardinality many
  lexicon alpha, beta, gamma
end
)";

TEST(OntologyParserTest, ParsesSample) {
  auto ontology = ParseOntology(kSample);
  ASSERT_TRUE(ontology.ok()) << ontology.status().ToString();
  EXPECT_EQ(ontology->name(), "Test");
  EXPECT_EQ(ontology->entity_name(), "Thing");
  ASSERT_EQ(ontology->object_sets().size(), 3u);

  const ObjectSet* name = ontology->Find("Name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->cardinality, Cardinality::kOneToOne);
  EXPECT_EQ(name->frame.value_type, "name");
  ASSERT_EQ(name->frame.value_patterns.size(), 1u);
  EXPECT_EQ(name->frame.value_patterns[0], "[A-Z][a-z]+");

  const ObjectSet* when = ontology->Find("When");
  ASSERT_NE(when, nullptr);
  EXPECT_EQ(when->cardinality, Cardinality::kFunctional);
  EXPECT_EQ(when->frame.keywords,
            (std::vector<std::string>{"happened on", "took place on"}));
  EXPECT_EQ(when->frame.lexicon,
            (std::vector<std::string>{"Monday", "Tuesday"}));

  const ObjectSet* tag = ontology->Find("Tag");
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->cardinality, Cardinality::kMany);
  EXPECT_EQ(tag->frame.lexicon.size(), 3u);
}

TEST(OntologyParserTest, DefaultCardinalityIsMany) {
  auto ontology = ParseOntology(
      "ontology X\nentity E\nobjectset A\nkeyword k\nend\n");
  ASSERT_TRUE(ontology.ok());
  EXPECT_EQ(ontology->object_sets()[0].cardinality, Cardinality::kMany);
}

TEST(OntologyParserTest, CommentsAndBlankLinesIgnored)
{
  auto ontology = ParseOntology(
      "# header\n\nontology X # trailing\nentity E\n\n"
      "objectset A\n  keyword k # why not\nend\n");
  ASSERT_TRUE(ontology.ok());
  EXPECT_EQ(ontology->name(), "X");
  EXPECT_EQ(ontology->object_sets()[0].frame.keywords[0], "k");
}

TEST(OntologyParserTest, RoundTripsThroughDsl) {
  auto ontology = ParseOntology(kSample).value();
  const std::string dsl = OntologyToDsl(ontology);
  auto reparsed = ParseOntology(dsl);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(OntologyToDsl(*reparsed), dsl);
  EXPECT_EQ(reparsed->object_sets().size(), ontology.object_sets().size());
}

struct ErrorCase {
  const char* name;
  const char* dsl;
  const char* expect_substring;
};

// Prints the case name, so test names are stable across runs instead of
// carrying the (address-dependent) bytes of the two string pointers.
void PrintTo(const ErrorCase& error_case, std::ostream* os) {
  *os << error_case.name;
}

class OntologyParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(OntologyParserErrorTest, ReportsParseError) {
  auto ontology = ParseOntology(GetParam().dsl);
  ASSERT_FALSE(ontology.ok()) << GetParam().dsl;
  EXPECT_EQ(ontology.status().code(), Status::Code::kParseError)
      << ontology.status().ToString();
  EXPECT_NE(ontology.status().message().find(GetParam().expect_substring),
            std::string::npos)
      << ontology.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Errors, OntologyParserErrorTest,
    ::testing::Values(
        ErrorCase{"DuplicateOntology",
                  "entity E\nobjectset A\nkeyword k\nend\nontology late\n"
                  "ontology again\n",
                  "duplicate 'ontology'"},
        ErrorCase{"DuplicateEntity",
                  "ontology X\nentity A\nentity B\nobjectset O\nkeyword k\n"
                  "end\n",
                  "duplicate 'entity'"},
        ErrorCase{"UnnamedObjectSet",
                  "ontology X\nentity E\nobjectset\n", "needs a name"},
        ErrorCase{"MissingEnd",
                  "ontology X\nentity E\nobjectset A\nobjectset B\n",
                  "missing 'end'"},
        ErrorCase{"EndOutsideObjectSet",
                  "ontology X\nentity E\nend\n", "'end' outside objectset"},
        ErrorCase{"UnknownCardinality",
                  "ontology X\nentity E\nobjectset A\ncardinality sometimes\n",
                  "unknown cardinality"},
        ErrorCase{"KeywordOutsideObjectSet",
                  "ontology X\nentity E\nkeyword k\n",
                  "'keyword' outside objectset"},
        ErrorCase{"EmptyKeyword",
                  "ontology X\nentity E\nobjectset A\nkeyword\nend\n",
                  "empty keyword"},
        ErrorCase{"EmptyPattern",
                  "ontology X\nentity E\nobjectset A\npattern\nend\n",
                  "empty pattern"},
        ErrorCase{"UnknownDirective",
                  "ontology X\nentity E\nfrobnicate y\n",
                  "unknown directive"},
        ErrorCase{"UnterminatedObjectSet",
                  "ontology X\nentity E\nobjectset A\nkeyword k\n",
                  "unterminated objectset"}));

TEST(OntologyParserTest, ErrorsNameLineNumbers) {
  auto status =
      ParseOntology("ontology X\nentity E\nbogus directive\n").status();
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.ToString();
}

TEST(OntologyParserTest, ValidationRunsAfterParse) {
  // Parses fine but fails validation: object set with no recognizers.
  auto ontology = ParseOntology(
      "ontology X\nentity E\nobjectset Mute\ncardinality functional\nend\n");
  ASSERT_FALSE(ontology.ok());
  EXPECT_EQ(ontology.status().code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace webrbd
