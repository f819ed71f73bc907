// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/db_instance_generator.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace webrbd {

Result<DatabaseInstanceGenerator> DatabaseInstanceGenerator::Create(
    const Ontology& ontology, InstanceGeneratorOptions options) {
  auto recognizer = Recognizer::Create(ontology);
  if (!recognizer.ok()) return recognizer.status();
  return DatabaseInstanceGenerator(
      ontology,
      std::make_shared<const Recognizer>(std::move(recognizer).value()),
      options);
}

DatabaseInstanceGenerator DatabaseInstanceGenerator::WithRecognizer(
    const Ontology& ontology, std::shared_ptr<const Recognizer> recognizer,
    InstanceGeneratorOptions options) {
  return DatabaseInstanceGenerator(ontology, std::move(recognizer), options);
}

DatabaseInstanceGenerator::DatabaseInstanceGenerator(
    const Ontology& ontology, std::shared_ptr<const Recognizer> recognizer,
    InstanceGeneratorOptions options)
    : scheme_(GenerateDatabaseScheme(ontology)),
      recognizer_(std::move(recognizer)),
      options_(options) {
  for (const ObjectSet& object_set : ontology.object_sets()) {
    fields_.push_back(FieldInfo{object_set.name, object_set.cardinality,
                                object_set.frame.HasValueRecognizers(),
                                object_set.frame.HasKeywords()});
  }
}

std::vector<DataRecordEntry> DatabaseInstanceGenerator::ResolveConstants(
    const DataRecordTable& table) const {
  // Group constants by span; a span matched under several descriptors is
  // ambiguous (shared value type, e.g. a date that could be the death or
  // the funeral date).
  std::map<std::pair<size_t, size_t>, std::vector<const DataRecordEntry*>>
      spans;
  std::vector<const DataRecordEntry*> keywords;
  for (const DataRecordEntry& entry : table.entries()) {
    if (entry.kind == MatchKind::kConstant) {
      spans[{entry.begin, entry.end}].push_back(&entry);
    } else {
      keywords.push_back(&entry);
    }
  }

  // Distance from the nearest preceding same-descriptor keyword to `begin`,
  // or SIZE_MAX when none lies within the window.
  auto keyword_distance = [&](const std::string& descriptor, size_t begin) {
    size_t best = std::numeric_limits<size_t>::max();
    for (const DataRecordEntry* keyword : keywords) {
      if (keyword->descriptor != descriptor) continue;
      if (keyword->begin > begin) continue;  // must start at or before it
      // A keyword overlapping the constant's start ("Room 123" begins with
      // the Room keyword itself) claims it at distance zero.
      const size_t distance = keyword->end > begin ? 0 : begin - keyword->end;
      if (distance <= options_.keyword_window) best = std::min(best, distance);
    }
    return best;
  };

  std::vector<DataRecordEntry> resolved;
  for (const auto& [span, group] : spans) {
    if (group.size() == 1) {
      resolved.push_back(*group[0]);
      continue;
    }
    // Contested span: the descriptor with the closest preceding keyword
    // wins.
    const DataRecordEntry* winner = nullptr;
    size_t winner_distance = std::numeric_limits<size_t>::max();
    for (const DataRecordEntry* entry : group) {
      const size_t distance = keyword_distance(entry->descriptor, span.first);
      if (distance < winner_distance) {
        winner_distance = distance;
        winner = entry;
      }
    }
    if (winner != nullptr &&
        winner_distance != std::numeric_limits<size_t>::max()) {
      resolved.push_back(*winner);
      continue;
    }
    // No keyword claims the span. A value-identified object set (one whose
    // frame carries no keywords at all) may still claim it: such sets are
    // recognized by value alone, whereas keyword-bearing sets expect
    // context. Only an unambiguous claim (exactly one such descriptor)
    // resolves; otherwise the span stays unassigned — the paper's pipeline
    // prefers precision over recall here.
    const DataRecordEntry* keywordless_claim = nullptr;
    bool unique = true;
    for (const DataRecordEntry* entry : group) {
      for (const FieldInfo& field : fields_) {
        if (field.name != entry->descriptor) continue;
        if (!field.has_keywords) {
          if (keywordless_claim != nullptr) unique = false;
          keywordless_claim = entry;
        }
        break;
      }
    }
    if (keywordless_claim != nullptr && unique) {
      resolved.push_back(*keywordless_claim);
    }
  }
  std::sort(resolved.begin(), resolved.end(),
            [](const DataRecordEntry& a, const DataRecordEntry& b) {
              return a.begin < b.begin;
            });
  return resolved;
}

std::vector<std::pair<std::string, std::string>>
DatabaseInstanceGenerator::FieldsForRecord(std::string_view record_text) const {
  return FieldsFromTable(recognizer_->Recognize(record_text));
}

std::vector<std::pair<std::string, std::string>>
DatabaseInstanceGenerator::FieldsFromTable(
    const DataRecordTable& record_table) const {
  std::vector<DataRecordEntry> constants = ResolveConstants(record_table);

  std::vector<std::pair<std::string, std::string>> fields;
  std::set<std::string> functional_done;
  std::set<std::pair<std::string, std::string>> many_seen;
  for (const DataRecordEntry& entry : constants) {
    const FieldInfo* info = nullptr;
    for (const FieldInfo& field : fields_) {
      if (field.name == entry.descriptor) {
        info = &field;
        break;
      }
    }
    if (info == nullptr) continue;
    if (info->cardinality == Cardinality::kMany) {
      // Many-valued: keep every distinct value.
      if (many_seen.insert({entry.descriptor, entry.value}).second) {
        fields.emplace_back(entry.descriptor, entry.value);
      }
    } else {
      // Functional / one-to-one: first (leftmost) constant wins.
      if (functional_done.insert(entry.descriptor).second) {
        fields.emplace_back(entry.descriptor, entry.value);
      }
    }
  }
  return fields;
}

Status DatabaseInstanceGenerator::InsertEntity(
    db::Catalog* catalog, int64_t id,
    const std::vector<std::pair<std::string, std::string>>& fields) const {
  db::Table* entity_table =
      catalog->GetTable(scheme_.entity_table.table_name());
  std::vector<std::pair<std::string, db::Value>> row = {
      {"id", db::Value::Int64(id)}};
  for (const auto& [name, value] : fields) {
    const FieldInfo* info = nullptr;
    for (const FieldInfo& field : fields_) {
      if (field.name == name) {
        info = &field;
        break;
      }
    }
    if (info == nullptr) {
      // Reachable when records replayed from a store file were extracted
      // under a different ontology than this generator's.
      return Status::InvalidArgument("unknown attribute '" + name +
                                     "' for entity " +
                                     scheme_.entity_table.table_name());
    }
    if (info->cardinality == Cardinality::kMany) {
      db::Table* aux =
          catalog->GetTable(scheme_.entity_table.table_name() + "_" + name);
      if (aux == nullptr) {
        return Status::Internal("missing aux table for " + name);
      }
      WEBRBD_RETURN_IF_ERROR(
          aux->Insert({db::Value::Int64(id), db::Value::String(value)}));
    } else {
      row.emplace_back(name, db::Value::String(value));
    }
  }
  return entity_table->InsertNamed(row);
}

Result<db::Catalog> DatabaseInstanceGenerator::Populate(
    const std::vector<ExtractedRecord>& records) const {
  auto catalog = scheme_.CreateCatalog();
  if (!catalog.ok()) return catalog.status();
  int64_t next_id = 1;
  for (const ExtractedRecord& record : records) {
    WEBRBD_RETURN_IF_ERROR(InsertEntity(&catalog.value(), next_id++,
                                        FieldsForRecord(record.text)));
  }
  return catalog;
}

Result<db::Catalog> DatabaseInstanceGenerator::PopulateFromPartitions(
    const std::vector<DataRecordTable>& partitions) const {
  auto catalog = scheme_.CreateCatalog();
  if (!catalog.ok()) return catalog.status();
  int64_t next_id = 1;
  for (const DataRecordTable& partition : partitions) {
    WEBRBD_RETURN_IF_ERROR(InsertEntity(&catalog.value(), next_id++,
                                        FieldsFromTable(partition)));
  }
  return catalog;
}

}  // namespace webrbd
