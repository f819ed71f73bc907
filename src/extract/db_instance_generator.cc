// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/db_instance_generator.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <span>
#include <string_view>

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
    size_t first = 0;
    while (first < fields_.size() && fields_[first].name != object_set.name) {
      ++first;
    }
    fields_.push_back(FieldInfo{object_set.name, object_set.cardinality,
                                object_set.frame.HasValueRecognizers(),
                                object_set.frame.HasKeywords(), first});
  }
}

size_t DatabaseInstanceGenerator::FieldIndex(
    const DataRecordEntry& entry) const {
  if (entry.object_set < fields_.size() &&
      fields_[entry.object_set].name == entry.descriptor) {
    return fields_[entry.object_set].first;
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == entry.descriptor) return i;
  }
  return fields_.size();
}

std::vector<const DataRecordEntry*> DatabaseInstanceGenerator::ResolveConstants(
    const DataRecordTable& table) const {
  // Constants are grouped by span; a span matched under several
  // descriptors is ambiguous (shared value type, e.g. a date that could be
  // the death or the funeral date). Entries are sorted by begin, so each
  // run of equal begins holds every span starting there; ordering a run's
  // constants by end (stably) yields the spans in (begin, end) order, each
  // group in table order.
  const std::span<const DataRecordEntry> entries = table.entries();
  std::vector<const DataRecordEntry*> keywords;
  std::vector<const DataRecordEntry*> resolved;
  std::vector<const DataRecordEntry*> run;

  // Distance from the nearest preceding same-descriptor keyword to `begin`,
  // or SIZE_MAX when none lies within the window. Keywords after the
  // current run are not collected yet, and could not claim it anyway.
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

  // The entry that gets a contested span, or nullptr.
  auto resolve = [&](std::span<const DataRecordEntry* const> group)
      -> const DataRecordEntry* {
    // The descriptor with the closest preceding keyword wins.
    const DataRecordEntry* winner = nullptr;
    size_t winner_distance = std::numeric_limits<size_t>::max();
    for (const DataRecordEntry* entry : group) {
      const size_t distance = keyword_distance(entry->descriptor, entry->begin);
      if (distance < winner_distance) {
        winner_distance = distance;
        winner = entry;
      }
    }
    if (winner != nullptr) return winner;
    // No keyword claims the span. A value-identified object set (one whose
    // frame carries no keywords at all) may still claim it: such sets are
    // recognized by value alone, whereas keyword-bearing sets expect
    // context. Only an unambiguous claim (exactly one such descriptor)
    // resolves; otherwise the span stays unassigned — the paper's pipeline
    // prefers precision over recall here.
    const DataRecordEntry* keywordless_claim = nullptr;
    for (const DataRecordEntry* entry : group) {
      const size_t field = FieldIndex(*entry);
      if (field == fields_.size() || fields_[field].has_keywords) continue;
      if (keywordless_claim != nullptr) return nullptr;
      keywordless_claim = entry;
    }
    return keywordless_claim;
  };

  for (size_t i = 0; i < entries.size();) {
    run.clear();
    size_t next = i;
    for (; next < entries.size() && entries[next].begin == entries[i].begin;
         ++next) {
      if (entries[next].kind == MatchKind::kConstant) {
        run.push_back(&entries[next]);
      } else {
        keywords.push_back(&entries[next]);
      }
    }
    i = next;
    // By end, then by table order: the run's pointers all point into one
    // array, so address order is table order.
    std::sort(run.begin(), run.end(),
              [](const DataRecordEntry* a, const DataRecordEntry* b) {
                return a->end != b->end ? a->end < b->end : a < b;
              });
    for (size_t first = 0; first < run.size();) {
      size_t last = first + 1;
      while (last < run.size() && run[last]->end == run[first]->end) ++last;
      const DataRecordEntry* winner =
          last - first == 1
              ? run[first]
              : resolve(std::span(run).subspan(first, last - first));
      if (winner != nullptr) resolved.push_back(winner);
      first = last;
    }
  }
  // Already in begin order; the sort is kept because it fixes the order
  // of equal begins (different ends) that records have always had.
  std::sort(resolved.begin(), resolved.end(),
            [](const DataRecordEntry* a, const DataRecordEntry* b) {
              return a->begin < b->begin;
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
  const std::vector<const DataRecordEntry*> constants =
      ResolveConstants(record_table);

  std::vector<std::pair<std::string, std::string>> fields;
  fields.reserve(constants.size());
  // Per field: whether a functional field has its value.
  std::vector<uint8_t> functional_done(fields_.size(), 0);
  // Many-valued fields keep every distinct value: an open-addressing set
  // over the kept (field, value) pairs, sized for every constant, holding
  // index + 1 into `kept` (0 = empty).
  std::vector<std::pair<size_t, const std::string*>> kept;
  std::vector<uint32_t> slots;
  for (const DataRecordEntry* entry : constants) {
    const size_t field = FieldIndex(*entry);
    if (field == fields_.size()) continue;
    if (fields_[field].cardinality != Cardinality::kMany) {
      // Functional / one-to-one: first (leftmost) constant wins.
      if (functional_done[field] == 0) {
        functional_done[field] = 1;
        fields.emplace_back(entry->descriptor, entry->value);
      }
      continue;
    }
    if (slots.empty()) slots.assign(std::bit_ceil(constants.size() * 2), 0);
    const size_t mask = slots.size() - 1;
    size_t slot =
        (std::hash<std::string_view>()(entry->value) ^ field * 0x9E3779B9) &
        mask;
    bool seen = false;
    for (; slots[slot] != 0; slot = (slot + 1) & mask) {
      const auto& [kept_field, kept_value] = kept[slots[slot] - 1];
      if (kept_field == field && *kept_value == entry->value) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    kept.emplace_back(field, &entry->value);
    slots[slot] = static_cast<uint32_t>(kept.size());
    fields.emplace_back(entry->descriptor, entry->value);
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
