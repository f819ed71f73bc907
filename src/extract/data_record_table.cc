// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "extract/data_record_table.h"

#include <algorithm>

#include "util/table_printer.h"

namespace webrbd {

DataRecordTable::DataRecordTable(std::vector<DataRecordEntry> entries)
    : begin_(0), end_(entries.size()) {
  auto by_begin = [](const DataRecordEntry& a, const DataRecordEntry& b) {
    return a.begin < b.begin;
  };
  // The recognizer hands over entries already in order; checking is one
  // pass, where the stable sort would move every entry through a buffer.
  if (!std::is_sorted(entries.begin(), entries.end(), by_begin)) {
    std::stable_sort(entries.begin(), entries.end(), by_begin);
  }
  storage_ = std::make_shared<std::vector<DataRecordEntry>>(std::move(entries));
}

std::vector<DataRecordEntry> DataRecordTable::TakeEntries() && {
  std::vector<DataRecordEntry> out;
  if (storage_ != nullptr && storage_.use_count() == 1 && begin_ == 0 &&
      end_ == storage_->size()) {
    out = std::move(*storage_);
  } else {
    const std::span<const DataRecordEntry> range = entries();
    out.assign(range.begin(), range.end());
  }
  storage_ = nullptr;
  return out;
}

std::vector<DataRecordEntry> DataRecordTable::ForDescriptor(
    const std::string& name) const {
  std::vector<DataRecordEntry> out;
  for (const DataRecordEntry& entry : entries()) {
    if (entry.descriptor == name) out.push_back(entry);
  }
  return out;
}

size_t DataRecordTable::CountFor(const std::string& name) const {
  size_t count = 0;
  for (const DataRecordEntry& entry : entries()) {
    if (entry.descriptor == name) ++count;
  }
  return count;
}

size_t DataRecordTable::CountFor(const std::string& name,
                                 MatchKind kind) const {
  size_t count = 0;
  for (const DataRecordEntry& entry : entries()) {
    if (entry.descriptor == name && entry.kind == kind) ++count;
  }
  return count;
}

std::vector<DataRecordTable> DataRecordTable::PartitionAt(
    const std::vector<size_t>& cut_positions) const {
  // Entries and cuts both ascend, so partition j is the run of entries
  // from the first with begin >= cut[j-1] to the first with begin >=
  // cut[j]: one merge, no search, no copy.
  const std::span<const DataRecordEntry> all = entries();
  std::vector<DataRecordTable> partitions;
  partitions.reserve(cut_positions.size() + 1);
  size_t first = 0;
  for (const size_t cut : cut_positions) {
    size_t last = first;
    while (last < all.size() && all[last].begin < cut) ++last;
    partitions.push_back(
        DataRecordTable(storage_, begin_ + first, begin_ + last));
    first = last;
  }
  partitions.push_back(DataRecordTable(storage_, begin_ + first, end_));
  return partitions;
}

std::string DataRecordTable::ToString(size_t max_entries) const {
  TablePrinter printer({"Descriptor", "String", "Position", "Kind"});
  size_t shown = 0;
  for (const DataRecordEntry& entry : entries()) {
    if (shown++ >= max_entries) break;
    printer.AddRow({entry.descriptor, entry.value, std::to_string(entry.begin),
                    entry.kind == MatchKind::kKeyword ? "keyword" : "constant"});
  }
  std::string out = printer.ToString();
  if (size() > max_entries) {
    out += "... " + std::to_string(size() - max_entries) +
           " more entries\n";
  }
  return out;
}

}  // namespace webrbd
