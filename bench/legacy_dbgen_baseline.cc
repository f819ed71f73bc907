// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// FROZEN: see legacy_dbgen_baseline.h. Bodies are the pre-shared-storage
// DataRecordTable::PartitionAt and DatabaseInstanceGenerator::
// ResolveConstants / FieldsFromTable, unchanged but for taking entry
// vectors instead of tables and shorter comments.

#include "legacy_dbgen_baseline.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace webrbd::bench {

std::vector<std::vector<DataRecordEntry>> LegacyPartitionAt(
    const std::vector<DataRecordEntry>& entries,
    const std::vector<size_t>& cut_positions) {
  std::vector<std::vector<DataRecordEntry>> buckets(cut_positions.size() + 1);
  for (const DataRecordEntry& entry : entries) {
    // First cut position strictly greater than entry.begin determines the
    // bucket; entries and cut_positions are both ascending.
    size_t bucket = std::upper_bound(cut_positions.begin(),
                                     cut_positions.end(), entry.begin) -
                    cut_positions.begin();
    buckets[bucket].push_back(entry);
  }
  return buckets;
}

LegacyFieldAssembler::LegacyFieldAssembler(const Ontology& ontology,
                                           size_t keyword_window)
    : keyword_window_(keyword_window) {
  for (const ObjectSet& object_set : ontology.object_sets()) {
    fields_.push_back(FieldInfo{object_set.name, object_set.cardinality,
                                object_set.frame.HasValueRecognizers(),
                                object_set.frame.HasKeywords()});
  }
}

std::vector<DataRecordEntry> LegacyFieldAssembler::ResolveConstants(
    const std::vector<DataRecordEntry>& entries) const {
  std::map<std::pair<size_t, size_t>, std::vector<const DataRecordEntry*>>
      spans;
  std::vector<const DataRecordEntry*> keywords;
  for (const DataRecordEntry& entry : entries) {
    if (entry.kind == MatchKind::kConstant) {
      spans[{entry.begin, entry.end}].push_back(&entry);
    } else {
      keywords.push_back(&entry);
    }
  }

  auto keyword_distance = [&](const std::string& descriptor, size_t begin) {
    size_t best = std::numeric_limits<size_t>::max();
    for (const DataRecordEntry* keyword : keywords) {
      if (keyword->descriptor != descriptor) continue;
      if (keyword->begin > begin) continue;
      const size_t distance = keyword->end > begin ? 0 : begin - keyword->end;
      if (distance <= keyword_window_) best = std::min(best, distance);
    }
    return best;
  };

  std::vector<DataRecordEntry> resolved;
  for (const auto& [span, group] : spans) {
    if (group.size() == 1) {
      resolved.push_back(*group[0]);
      continue;
    }
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
LegacyFieldAssembler::FieldsFromTable(
    const std::vector<DataRecordEntry>& record_entries) const {
  std::vector<DataRecordEntry> constants = ResolveConstants(record_entries);

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
      if (many_seen.insert({entry.descriptor, entry.value}).second) {
        fields.emplace_back(entry.descriptor, entry.value);
      }
    } else {
      if (functional_done.insert(entry.descriptor).second) {
        fields.emplace_back(entry.descriptor, entry.value);
      }
    }
  }
  return fields;
}

}  // namespace webrbd::bench
