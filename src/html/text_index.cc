// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "html/text_index.h"

#include <algorithm>

#include "html/inline_tags.h"

namespace webrbd {

TextIndex::TextIndex(const TagTree& tree, const TagNode& node)
    : tree_(&tree), node_(&node) {
  const auto [first, last] = tree.TokenSpan(node);
  const auto& tokens = tree.tokens();
  const auto& symbols = tree.token_symbols();
  const std::vector<bool> inline_symbol = InlineSymbolTable(tree.interner());
  region_end_ = node.region_end;
  if (&node == &tree.root()) region_end_ = tree.document().size();

  for (size_t i = first; i <= last && i < tokens.size(); ++i) {
    const HtmlToken& token = tokens[i];
    if (token.kind == HtmlToken::Kind::kText) {
      segments_.push_back(Segment{text_.size(), token.begin, false});
      text_ += token.text;
    } else if (token.kind == HtmlToken::Kind::kStartTag &&
               !inline_symbol[symbols[i]]) {
      segments_.push_back(Segment{text_.size(), token.begin, true});
      text_ += '\n';
    }
  }
}

size_t TextIndex::ToDocumentOffset(size_t text_offset) const {
  if (segments_.empty()) return region_end_;
  // Find the last segment whose text_begin <= text_offset.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), text_offset,
      [](size_t offset, const Segment& segment) {
        return offset < segment.text_begin;
      });
  if (it != segments_.begin()) --it;
  return MapInSegment(static_cast<size_t>(it - segments_.begin()),
                      text_offset);
}

size_t TextIndex::Cursor::ToDocumentOffset(size_t text_offset) {
  const std::vector<Segment>& segments = index_->segments_;
  if (segments.empty()) return index_->region_end_;
  if (segments[segment_].text_begin > text_offset) segment_ = 0;
  while (segment_ + 1 < segments.size() &&
         segments[segment_ + 1].text_begin <= text_offset) {
    ++segment_;
  }
  return index_->MapInSegment(segment_, text_offset);
}

size_t TextIndex::MapInSegment(size_t segment, size_t text_offset) const {
  const Segment& it = segments_[segment];
  // Before the first segment, or inside an inserted boundary byte: report
  // the tag's position.
  if (it.text_begin > text_offset || it.synthetic) return it.doc_begin;
  const size_t delta = text_offset - it.text_begin;
  return std::min(it.doc_begin + delta, region_end_);
}

std::vector<size_t> TextIndex::SeparatorPositions(
    const std::string& tag) const {
  return SeparatorPositionsInRegion(*tree_, *node_, tag);
}

std::vector<size_t> TextIndex::SeparatorPositionsInRegion(
    const TagTree& tree, const TagNode& node, const std::string& tag) {
  std::vector<size_t> positions;
  const TagSymbol symbol = tree.SymbolOf(tag);
  if (symbol == kInvalidTagSymbol) return positions;
  const auto [first, last] = tree.TokenSpan(node);
  const auto& tokens = tree.tokens();
  const auto& symbols = tree.token_symbols();
  for (size_t i = first; i <= last && i < tokens.size(); ++i) {
    if (symbols[i] == symbol &&
        tokens[i].kind == HtmlToken::Kind::kStartTag) {
      positions.push_back(tokens[i].begin);
    }
  }
  return positions;
}

}  // namespace webrbd
