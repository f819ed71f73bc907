// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Fuzz drivers for two parsers of untrusted bytes: the CSV reader
// (db::ParseCsv), which reads exported tables back, and the NDJSON request
// line parser (serve::ParseNdjsonHtmlLine), which reads every document the
// daemon ingests. Each seed renders random rows or documents of arbitrary
// bytes, requires the parse to invert the renderer exactly, and then feeds
// truncated and mutated forms, which must fail cleanly or parse the same
// way twice. Failures name the seed and the input.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "db/export.h"
#include "fuzz/fuzz_util.h"
#include "serve/json_util.h"
#include "util/rng.h"

namespace webrbd {
namespace {

// Random bytes biased toward the ones each format treats specially.
std::string RandomBytes(Rng* rng, size_t max_size, std::string_view special) {
  std::string out;
  for (size_t n = rng->Below(static_cast<uint32_t>(max_size + 1)); n > 0;
       --n) {
    out += rng->Chance(0.35)
               ? special[rng->Below(static_cast<uint32_t>(special.size()))]
               : static_cast<char>(rng->Below(256));
  }
  return out;
}

// Truncates, flips, inserts or deletes a few bytes of `input`.
std::string Mutate(Rng* rng, std::string input, std::string_view special) {
  for (int k = rng->RangeInclusive(1, 4); k > 0; --k) {
    const size_t at = input.empty() ? 0 : rng->Below(static_cast<uint32_t>(
                                              input.size()));
    const char byte =
        rng->Chance(0.5)
            ? special[rng->Below(static_cast<uint32_t>(special.size()))]
            : static_cast<char>(rng->Below(256));
    switch (rng->Below(4)) {
      case 0: input.resize(at); break;
      case 1: if (!input.empty()) input[at] = byte; break;
      case 2: input.insert(input.begin() + static_cast<std::ptrdiff_t>(at), byte); break;
      case 3: if (!input.empty()) input.erase(at, 1); break;
    }
  }
  return input;
}

using Rows = std::vector<std::vector<db::CsvField>>;

// Renders rows as ToCsv does: NULL bare, an empty string quoted, the rest
// through CsvEscape; every row LF-terminated.
std::string RenderCsv(const Rows& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      if (row[i].null) continue;
      out += row[i].text.empty() ? "\"\"" : db::CsvEscape(row[i].text);
    }
    out += '\n';
  }
  return out;
}

class CsvParseFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvParseFuzzTest, ParseInvertsRenderAndMutantsFailCleanly) {
  constexpr std::string_view kSpecial = ",\"\r\n a";
  Rng rng(static_cast<uint64_t>(GetParam()), /*stream=*/0xc5f);
  Rows rows(rng.RangeInclusive(1, 6));
  for (auto& row : rows) {
    row.resize(rng.RangeInclusive(1, 5));
    for (db::CsvField& field : row) {
      field.null = rng.Chance(0.15);
      if (!field.null) field.text = RandomBytes(&rng, 12, kSpecial);
    }
    // A lone NULL would render as an empty line, which reads as no field.
    if (row.size() == 1 && row[0].null) row[0] = db::CsvField{"x", false};
  }
  const std::string csv = RenderCsv(rows);
  SCOPED_TRACE(fuzz::SeedTrace(GetParam(), csv));
  auto parsed = db::ParseCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, rows);

  for (int m = 0; m < 16; ++m) {
    const std::string mutant = Mutate(&rng, csv, kSpecial);
    SCOPED_TRACE(fuzz::SeedTrace(GetParam(), mutant));
    auto first = db::ParseCsv(mutant);
    auto second = db::ParseCsv(mutant);
    ASSERT_EQ(first.ok(), second.ok());
    if (first.ok()) {
      EXPECT_EQ(*first, *second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvParseFuzzTest, ::testing::Range(0, 48));

class NdjsonLineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(NdjsonLineFuzzTest, ParseInvertsEscapeAndMutantsFailCleanly) {
  constexpr std::string_view kSpecial = "\"\\{}[]:,<> \n\t/u0";
  Rng rng(static_cast<uint64_t>(GetParam()), /*stream=*/0x7d15);
  const std::string html = RandomBytes(&rng, 200, kSpecial);
  // Other keys, with nested values, before and after "html".
  static const char* const kOthers[] = {
      "\"id\": 17", "\"tags\": [\"a\", [1, 2.5e3], {\"k\": null}]",
      "\"ok\": true", "\"meta\": {\"u\": \"\\u00e9\\n\", \"z\": false}"};
  std::string line = "{";
  if (rng.Chance(0.5)) line += std::string(kOthers[rng.Below(4)]) + ", ";
  line += "\"html\": " + serve::JsonString(html);
  if (rng.Chance(0.5)) line += std::string(", ") + kOthers[rng.Below(4)];
  line += "}";
  SCOPED_TRACE(fuzz::SeedTrace(GetParam(), line));
  auto parsed = serve::ParseNdjsonHtmlLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, html);

  for (int m = 0; m < 16; ++m) {
    const std::string mutant = Mutate(&rng, line, kSpecial);
    SCOPED_TRACE(fuzz::SeedTrace(GetParam(), mutant));
    auto first = serve::ParseNdjsonHtmlLine(mutant);
    auto second = serve::ParseNdjsonHtmlLine(mutant);
    ASSERT_EQ(first.ok(), second.ok());
    if (first.ok()) {
      EXPECT_EQ(*first, *second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NdjsonLineFuzzTest, ::testing::Range(0, 48));

}  // namespace
}  // namespace webrbd
