// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The "Data-Record Table (Descriptor/String/Position)" of the paper's
// Figure 1: every recognized keyword and constant, tagged with its object
// set and position in the plain text, ordered by position.

#ifndef WEBRBD_EXTRACT_DATA_RECORD_TABLE_H_
#define WEBRBD_EXTRACT_DATA_RECORD_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ontology/matching_rules.h"

namespace webrbd {

/// One recognized keyword or constant.
struct DataRecordEntry {
  std::string descriptor;  ///< object-set name
  std::string value;       ///< matched string
  size_t begin = 0;        ///< byte offset in the scanned plain text
  size_t end = 0;          ///< one past the match
  MatchKind kind = MatchKind::kConstant;

  /// Index of the descriptor's object set in its ontology (and in
  /// MatchingRuleSet::rules()), or kNoObjectSet when the entry was built
  /// without one; a hint that lets consumers skip a lookup by name.
  static constexpr uint32_t kNoObjectSet = UINT32_MAX;
  uint32_t object_set = kNoObjectSet;
};

/// The position-ordered table of recognized entries for one text.
///
/// A table is a range over one shared, immutable entry array: copying a
/// table and partitioning it (PartitionAt) share that array instead of
/// copying entries, so a document's table and its per-record partitions
/// hold each entry once.
class DataRecordTable {
 public:
  DataRecordTable() = default;
  /// Takes the entries, stable-sorting them by begin unless they already
  /// are.
  explicit DataRecordTable(std::vector<DataRecordEntry> entries);

  /// The entries, sorted by begin.
  std::span<const DataRecordEntry> entries() const {
    return storage_ == nullptr
               ? std::span<const DataRecordEntry>()
               : std::span<const DataRecordEntry>(*storage_).subspan(
                     begin_, end_ - begin_);
  }
  // A moved-from table has no array and reads as empty.
  size_t size() const { return storage_ == nullptr ? 0 : end_ - begin_; }
  bool empty() const { return size() == 0; }

  /// The entries as a vector of their own, leaving this table empty: moved
  /// out when this table is the only one holding its array and covers all
  /// of it, copied otherwise.
  std::vector<DataRecordEntry> TakeEntries() &&;

  /// Entries for one object set, in position order.
  std::vector<DataRecordEntry> ForDescriptor(const std::string& name) const;

  /// Number of entries for one object set / match kind.
  size_t CountFor(const std::string& name) const;
  size_t CountFor(const std::string& name, MatchKind kind) const;

  /// Partitions the table at the given positions (ascending byte offsets —
  /// in the paper, the positions of the separator-tag occurrences). Entry i
  /// lands in partition j when cut[j-1] <= begin < cut[j]; entries before
  /// the first cut land in partition 0, which the paper's pipeline treats
  /// as the page preamble. Returns cuts.size() + 1 partitions, each a
  /// slice of this table's array, found by one merge of the entries with
  /// the cuts.
  std::vector<DataRecordTable> PartitionAt(
      const std::vector<size_t>& cut_positions) const;

  /// ASCII rendering for diagnostics.
  std::string ToString(size_t max_entries = 50) const;

 private:
  DataRecordTable(std::shared_ptr<std::vector<DataRecordEntry>> storage,
                  size_t begin, size_t end)
      : storage_(std::move(storage)), begin_(begin), end_(end) {}

  // Sorted by begin; never modified while shared (TakeEntries moves out
  // of it only when this table is its sole holder).
  std::shared_ptr<std::vector<DataRecordEntry>> storage_;
  size_t begin_ = 0;  // this table's range of *storage_
  size_t end_ = 0;
};

}  // namespace webrbd

#endif  // WEBRBD_EXTRACT_DATA_RECORD_TABLE_H_
