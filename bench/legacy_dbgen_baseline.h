// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// A FROZEN copy of the Database-Instance Generator's tail as it was before
// the Data-Record Table shared its entries: DataRecordTable::PartitionAt
// (a binary search per entry, every entry copied into its partition) and
// DatabaseInstanceGenerator::ResolveConstants + FieldsFromTable (spans
// grouped in a std::map, resolved constants copied, field info looked up
// by name, std::set bookkeeping). It exists for two reasons:
//
//   1. bench_components' BM_DbgenLegacy — the baseline of CI's dbgen ratio
//      guard, so the copy-free path's speedup is measured against the code
//      it replaced ON THE SAME HARDWARE, and
//   2. tests/extract/dbgen_differential_test.cc — the golden reference
//      whose partitions and field vectors, order included, the production
//      path must reproduce.
//
// Do not "modernize" this file; its whole value is not changing.

#ifndef WEBRBD_BENCH_LEGACY_DBGEN_BASELINE_H_
#define WEBRBD_BENCH_LEGACY_DBGEN_BASELINE_H_

#include <string>
#include <utility>
#include <vector>

#include "extract/data_record_table.h"
#include "ontology/model.h"

namespace webrbd::bench {

/// The original partition step: entry i lands in partition j when
/// cut[j-1] <= begin < cut[j]; returns cuts.size() + 1 partitions, each
/// holding copies of its entries. `entries` must be sorted by begin.
std::vector<std::vector<DataRecordEntry>> LegacyPartitionAt(
    const std::vector<DataRecordEntry>& entries,
    const std::vector<size_t>& cut_positions);

/// The original constant resolution and field assembly for one record.
class LegacyFieldAssembler {
 public:
  explicit LegacyFieldAssembler(const Ontology& ontology,
                                size_t keyword_window = 60);

  /// The original FieldsFromTable over one partition's entries (sorted by
  /// begin).
  std::vector<std::pair<std::string, std::string>> FieldsFromTable(
      const std::vector<DataRecordEntry>& record_entries) const;

 private:
  std::vector<DataRecordEntry> ResolveConstants(
      const std::vector<DataRecordEntry>& entries) const;

  struct FieldInfo {
    std::string name;
    Cardinality cardinality;
    bool has_constants;
    bool has_keywords;
  };

  std::vector<FieldInfo> fields_;
  size_t keyword_window_;
};

}  // namespace webrbd::bench

#endif  // WEBRBD_BENCH_LEGACY_DBGEN_BASELINE_H_
