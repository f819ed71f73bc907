// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "html/arena.h"

#include <algorithm>
#include <string>

#include "util/string_util.h"

namespace webrbd {

namespace {

// Block sizing: start small enough that tiny documents stay cheap, grow
// geometrically so huge documents need O(log n) blocks, cap the growth so
// a retained arena never holds one pathological mega-block per worker.
constexpr size_t kMinBlockBytes = 64 << 10;   // 64 KiB
constexpr size_t kMaxBlockBytes = 8 << 20;    // 8 MiB
constexpr size_t kInternPoolBytes = 4 << 10;  // 4 KiB per name pool

}  // namespace

// --- TagNameInterner -------------------------------------------------------

std::string_view TagNameInterner::Store(std::string_view name) {
  if (name.size() > pool_size_ - pool_used_ || pools_.empty()) {
    const size_t size = std::max(kInternPoolBytes, name.size());
    pools_.push_back(std::make_unique_for_overwrite<char[]>(size));
    pool_used_ = 0;
    pool_size_ = size;
    storage_bytes_ += size;
  }
  char* out = pools_.back().get() + pool_used_;
  std::memcpy(out, name.data(), name.size());
  pool_used_ += name.size();
  return {out, name.size()};
}

TagSymbol TagNameInterner::InternUncached(std::string_view name) {
  // Symbols are keyed by the lowercased name. The lexer already hands out
  // lowercase names, so the ContainsAsciiUpper word-scan is a nearly free
  // guard; only defensive callers with mixed-case input pay the transform.
  if (ContainsAsciiUpper(name)) return Intern(AsciiToLower(name));
  auto it = map_.find(name);
  if (it != map_.end()) return it->second;
  if (names_.size() >= kInvalidTagSymbol) return kInvalidTagSymbol;
  const std::string_view stored = Store(name);
  const TagSymbol symbol = static_cast<TagSymbol>(names_.size());
  names_.push_back(stored);
  map_.emplace(stored, symbol);  // key views the stable pool copy
  return symbol;
}

// --- DocumentArena ---------------------------------------------------------

void DocumentArena::NextBlock(size_t bytes) {
  // Reuse the next retained block that fits; blocks too small for this
  // request are skipped (they stay idle until the next Reset).
  while (active_block_ + 1 < blocks_.size()) {
    ++active_block_;
    if (blocks_[active_block_].capacity >= bytes) {
      cursor_ = blocks_[active_block_].data.get();
      block_end_ = cursor_ + blocks_[active_block_].capacity;
      return;
    }
  }
  const size_t last = blocks_.empty() ? 0 : blocks_.back().capacity;
  const size_t capacity =
      std::max(bytes, std::clamp(last * 2, kMinBlockBytes, kMaxBlockBytes));
  Block block;
  block.data = std::make_unique_for_overwrite<char[]>(capacity);
  block.capacity = capacity;
  bytes_reserved_ += capacity;
  blocks_.push_back(std::move(block));
  active_block_ = blocks_.size() - 1;
  cursor_ = blocks_.back().data.get();
  block_end_ = cursor_ + capacity;
}

void* DocumentArena::Allocate(size_t bytes, size_t alignment) {
  size_t padding =
      (alignment - reinterpret_cast<uintptr_t>(cursor_) % alignment) %
      alignment;
  if (cursor_ == nullptr || cursor_ + padding + bytes > block_end_) {
    NextBlock(bytes + alignment);
    padding =
        (alignment - reinterpret_cast<uintptr_t>(cursor_) % alignment) %
        alignment;
  }
  char* out = cursor_ + padding;
  cursor_ = out + bytes;
  bytes_in_use_ += padding + bytes;
  return out;
}

std::string_view DocumentArena::CopyString(std::string_view text) {
  if (text.empty()) return {};
  char* out = static_cast<char*>(Allocate(text.size(), 1));
  std::memcpy(out, text.data(), text.size());
  return {out, text.size()};
}

std::string_view DocumentArena::Concat(std::string_view head,
                                       std::string_view tail) {
  if (head.empty()) return CopyString(tail);
  if (tail.empty()) return head;
  // Extend in place when `head` is the most recent allocation and the
  // current block has room: common when a node's text accrues from several
  // adjacent tokens (comments discarded between text runs).
  if (head.data() + head.size() == cursor_ &&
      cursor_ + tail.size() <= block_end_) {
    std::memcpy(cursor_, tail.data(), tail.size());
    cursor_ += tail.size();
    bytes_in_use_ += tail.size();
    return {head.data(), head.size() + tail.size()};
  }
  char* out = static_cast<char*>(Allocate(head.size() + tail.size(), 1));
  std::memcpy(out, head.data(), head.size());
  std::memcpy(out + head.size(), tail.data(), tail.size());
  return {out, head.size() + tail.size()};
}

void DocumentArena::Reset() {
  active_block_ = 0;
  bytes_in_use_ = 0;
  token_bytes_ = 0;
  if (blocks_.empty()) {
    cursor_ = nullptr;
    block_end_ = nullptr;
    return;
  }
  cursor_ = blocks_[0].data.get();
  block_end_ = cursor_ + blocks_[0].capacity;
}

}  // namespace webrbd
