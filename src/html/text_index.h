// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// TextIndex: the plain text of a tag-tree region together with a mapping
// from plain-text offsets back to document byte offsets. The paper's
// integrated pipeline (Section 4.5) depends on this: recognizers run ONCE
// over the region's plain text, each match is positioned in the document,
// and the resulting Data-Record Table is partitioned at the separator
// tags' document positions — no per-record re-scan.

#ifndef WEBRBD_HTML_TEXT_INDEX_H_
#define WEBRBD_HTML_TEXT_INDEX_H_

#include <string>
#include <vector>

#include "html/tag_tree.h"

namespace webrbd {

/// Plain text of a region plus offset mapping into the source document.
class TextIndex {
 public:
  /// Builds the index over `node`'s region within `tree`. Text tokens are
  /// concatenated verbatim (inline-rendering semantics); block-level tag
  /// boundaries insert a single '\n' so words never glue across them.
  TextIndex(const TagTree& tree, const TagNode& node);

  /// The concatenated plain text.
  const std::string& text() const { return text_; }

  /// Document byte offset of plain-text offset `text_offset`. Synthetic
  /// separator bytes map to the document position of the following text.
  /// `text_offset == text().size()` maps to the region's end.
  size_t ToDocumentOffset(size_t text_offset) const;

  /// ToDocumentOffset for a run of ascending offsets, such as the begins
  /// of a Data-Record Table's entries: each call walks the segments
  /// forward from the previous call's instead of searching them all (an
  /// offset below the previous one walks from the first segment). The
  /// index must outlive the cursor.
  class Cursor {
   public:
    explicit Cursor(const TextIndex& index) : index_(&index) {}
    size_t ToDocumentOffset(size_t text_offset);

   private:
    const TextIndex* index_;
    size_t segment_ = 0;  // the previous offset's segment
  };

  /// Document positions (start-tag begin offsets) of every occurrence of
  /// `tag` start tags within the region, ascending.
  std::vector<size_t> SeparatorPositions(const std::string& tag) const;

  /// Same scan without constructing an index: separator positions come
  /// straight off the region's token span, no text materialization. For
  /// callers that need cut points but never read the region text (an
  /// ontology with no matching rules produces an empty Data-Record Table,
  /// so there is nothing to recognize or reposition).
  static std::vector<size_t> SeparatorPositionsInRegion(
      const TagTree& tree, const TagNode& node, const std::string& tag);

 private:
  struct Segment {
    size_t text_begin;  // offset of this segment's first byte in text_
    size_t doc_begin;   // document offset of that byte
    bool synthetic;     // true for inserted '\n' boundary bytes
  };

  // Maps text_offset, which lies in segments_[segment] (or before the
  // first segment), to its document offset.
  size_t MapInSegment(size_t segment, size_t text_offset) const;

  std::string text_;
  std::vector<Segment> segments_;
  size_t region_end_ = 0;
  const TagTree* tree_;
  const TagNode* node_;
};

}  // namespace webrbd

#endif  // WEBRBD_HTML_TEXT_INDEX_H_
