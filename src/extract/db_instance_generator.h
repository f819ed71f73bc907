// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The "Database-Instance Generator" of Figure 1: turns per-record
// Data-Record Tables into tuples of the generated database scheme, using
// the paper's step-5 heuristics — correlate extracted keywords with
// extracted constants, and honor the ontology's cardinality constraints.

#ifndef WEBRBD_EXTRACT_DB_INSTANCE_GENERATOR_H_
#define WEBRBD_EXTRACT_DB_INSTANCE_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/record_extractor.h"
#include "db/catalog.h"
#include "extract/data_record_table.h"
#include "extract/recognizer.h"
#include "ontology/db_scheme.h"
#include "ontology/model.h"
#include "util/result.h"

namespace webrbd {

/// Knobs for constant/keyword correlation.
struct InstanceGeneratorOptions {
  /// A keyword "claims" a same-descriptor constant that starts within this
  /// many bytes after the keyword ends.
  size_t keyword_window = 60;
};

/// Populates a relational instance from extracted records.
class DatabaseInstanceGenerator {
 public:
  /// Compiles the ontology (recognizer + scheme). Fails on bad patterns.
  [[nodiscard]] static Result<DatabaseInstanceGenerator> Create(
      const Ontology& ontology, InstanceGeneratorOptions options = {});

  /// Builds on an already-compiled recognizer for the same ontology,
  /// sharing it instead of compiling a second one.
  static DatabaseInstanceGenerator WithRecognizer(
      const Ontology& ontology, std::shared_ptr<const Recognizer> recognizer,
      InstanceGeneratorOptions options = {});

  /// Creates a fresh catalog from the scheme and inserts one entity row per
  /// record (plus aux-table rows for many-valued object sets).
  [[nodiscard]] Result<db::Catalog> Populate(
      const std::vector<ExtractedRecord>& records) const;

  /// Recognizes and assembles the column values for one record text;
  /// exposed for tests and the examples' step-by-step walkthrough.
  /// Returned pairs are (object-set name, value); many-valued object sets
  /// may repeat.
  std::vector<std::pair<std::string, std::string>> FieldsForRecord(
      std::string_view record_text) const;

  /// Assembles column values from an already-recognized Data-Record Table
  /// slice (one record's partition) — the paper's integrated flow, where
  /// recognizers ran once over the whole region.
  std::vector<std::pair<std::string, std::string>> FieldsFromTable(
      const DataRecordTable& record_table) const;

  /// Populates a fresh catalog with one entity row per partition.
  [[nodiscard]] Result<db::Catalog> PopulateFromPartitions(
      const std::vector<DataRecordTable>& partitions) const;

  /// Inserts one entity row (and its aux-table rows for many-valued
  /// object sets) into `catalog`, which must have been created from this
  /// generator's scheme. Public so record sinks (extract/record_sink.h)
  /// can materialize already-assembled records into catalogs.
  [[nodiscard]] Status InsertEntity(
      db::Catalog* catalog, int64_t id,
      const std::vector<std::pair<std::string, std::string>>& fields) const;

  const DatabaseScheme& scheme() const { return scheme_; }
  const Recognizer& recognizer() const { return *recognizer_; }

 private:
  DatabaseInstanceGenerator(const Ontology& ontology,
                            std::shared_ptr<const Recognizer> recognizer,
                            InstanceGeneratorOptions options);

  // Resolves constants claimed by multiple object sets (shared value types)
  // to the object set whose own keyword most closely precedes the constant.
  // The result points into `table`.
  std::vector<const DataRecordEntry*> ResolveConstants(
      const DataRecordTable& table) const;

  // Index into fields_ of the entry's object set (its object_set hint when
  // that names it, else a search by name), or fields_.size() when unknown.
  size_t FieldIndex(const DataRecordEntry& entry) const;

  struct FieldInfo {
    std::string name;
    Cardinality cardinality;
    bool has_constants;  // data frame has value recognizers
    bool has_keywords;   // data frame has keyword indicators
    // The first field with this name: an unvalidated ontology may repeat
    // one, and lookups by name have always resolved to the first.
    size_t first;
  };

  std::vector<FieldInfo> fields_;
  DatabaseScheme scheme_;
  std::shared_ptr<const Recognizer> recognizer_;
  InstanceGeneratorOptions options_;
};

}  // namespace webrbd

#endif  // WEBRBD_EXTRACT_DB_INSTANCE_GENERATOR_H_
