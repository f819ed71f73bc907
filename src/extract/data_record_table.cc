// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/data_record_table.h"

#include <algorithm>

#include "util/table_printer.h"

namespace webrbd {

DataRecordTable::DataRecordTable(std::vector<DataRecordEntry> entries)
    : entries_(std::move(entries)) {
  auto by_begin = [](const DataRecordEntry& a, const DataRecordEntry& b) {
    return a.begin < b.begin;
  };
  // The recognizer hands over entries already in order; checking is one
  // pass, where the stable sort would move every entry through a buffer.
  if (!std::is_sorted(entries_.begin(), entries_.end(), by_begin)) {
    std::stable_sort(entries_.begin(), entries_.end(), by_begin);
  }
}

std::vector<DataRecordEntry> DataRecordTable::ForDescriptor(
    const std::string& name) const {
  std::vector<DataRecordEntry> out;
  for (const DataRecordEntry& entry : entries_) {
    if (entry.descriptor == name) out.push_back(entry);
  }
  return out;
}

size_t DataRecordTable::CountFor(const std::string& name) const {
  size_t count = 0;
  for (const DataRecordEntry& entry : entries_) {
    if (entry.descriptor == name) ++count;
  }
  return count;
}

size_t DataRecordTable::CountFor(const std::string& name,
                                 MatchKind kind) const {
  size_t count = 0;
  for (const DataRecordEntry& entry : entries_) {
    if (entry.descriptor == name && entry.kind == kind) ++count;
  }
  return count;
}

std::vector<DataRecordTable> DataRecordTable::PartitionAt(
    const std::vector<size_t>& cut_positions) const {
  std::vector<std::vector<DataRecordEntry>> buckets(cut_positions.size() + 1);
  for (const DataRecordEntry& entry : entries_) {
    // First cut position strictly greater than entry.begin determines the
    // bucket; entries_ and cut_positions are both ascending.
    size_t bucket = std::upper_bound(cut_positions.begin(),
                                     cut_positions.end(), entry.begin) -
                    cut_positions.begin();
    buckets[bucket].push_back(entry);
  }
  std::vector<DataRecordTable> partitions;
  partitions.reserve(buckets.size());
  for (auto& bucket : buckets) {
    partitions.emplace_back(std::move(bucket));
  }
  return partitions;
}

std::string DataRecordTable::ToString(size_t max_entries) const {
  TablePrinter printer({"Descriptor", "String", "Position", "Kind"});
  size_t shown = 0;
  for (const DataRecordEntry& entry : entries_) {
    if (shown++ >= max_entries) break;
    printer.AddRow({entry.descriptor, entry.value, std::to_string(entry.begin),
                    entry.kind == MatchKind::kKeyword ? "keyword" : "constant"});
  }
  std::string out = printer.ToString();
  if (entries_.size() > max_entries) {
    out += "... " + std::to_string(entries_.size() - max_entries) +
           " more entries\n";
  }
  return out;
}

}  // namespace webrbd
