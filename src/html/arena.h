// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// DocumentArena: a monotonic per-document allocator that owns every
// TagNode (and every per-node side array) of a tag tree, plus the
// tag-name intern table. Tree construction bump-allocates out of large
// blocks instead of one heap allocation per node, and tree destruction is
// a single arena release — nodes are trivially destructible, so no
// per-node destructor runs at all (this subsumes the iterative-destructor
// workaround the pointer-chased tree needed against deep-nesting bombs).
//
// Reset() retains the allocated blocks AND the intern table, so a batch
// worker that processes a chunk of documents through one arena reuses
// warm memory and warm symbols across the whole chunk (the allocator
// reuse BatchOptions::chunk_size promises).
//
// Thread-compatibility: an arena is single-threaded state. Each batch
// worker owns its own; nothing here is synchronized.

#ifndef WEBRBD_HTML_ARENA_H_
#define WEBRBD_HTML_ARENA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace webrbd {

/// Dense integer id of an interned tag name. Name equality throughout the
/// heuristics is symbol equality — one integer compare instead of a
/// string compare per token.
using TagSymbol = uint16_t;

/// "No symbol": text tokens in a symbol stream, unknown names in lookups,
/// and the sentinel returned by TagNameInterner::Intern when the 16-bit
/// table overflows (65535 distinct names — far beyond any real document;
/// the tree builder converts it into a per-document kResourceExhausted).
inline constexpr TagSymbol kInvalidTagSymbol = 0xFFFF;

/// Tag-name intern table: one TagSymbol per distinct (lowercased) name.
/// Name bytes live in the interner's own monotonic pool, so the
/// string_views it hands out stay valid for the interner's lifetime —
/// across DocumentArena::Reset() in particular.
class TagNameInterner {
 public:
  TagNameInterner() = default;
  TagNameInterner(const TagNameInterner&) = delete;
  TagNameInterner& operator=(const TagNameInterner&) = delete;

  /// Returns the symbol of `name`, interning it on first sight. Returns
  /// kInvalidTagSymbol when the table is full. A direct-mapped cache of
  /// recently interned names answers repeats without the hash map: a
  /// markup-dense page interns the same handful of names hundreds of
  /// times, and the cache stays warm across DocumentArena::Reset().
  TagSymbol Intern(std::string_view name) {
    CacheEntry& entry = cache_[CacheSlot(name)];
    if (entry.symbol != kInvalidTagSymbol && entry.name == name) {
      return entry.symbol;
    }
    const TagSymbol symbol = InternUncached(name);
    if (symbol != kInvalidTagSymbol) entry = {names_[symbol], symbol};
    return symbol;
  }

  /// Lookup without interning; kInvalidTagSymbol when `name` was never
  /// interned.
  TagSymbol Find(std::string_view name) const {
    auto it = map_.find(name);
    return it == map_.end() ? kInvalidTagSymbol : it->second;
  }

  /// The interned name of `symbol`; empty view for kInvalidTagSymbol or
  /// out-of-range symbols.
  std::string_view NameOf(TagSymbol symbol) const {
    return symbol < names_.size() ? names_[symbol] : std::string_view();
  }

  /// Number of distinct names interned so far.
  size_t size() const { return names_.size(); }

  /// Bytes reserved for name storage (diagnostics).
  size_t storage_bytes() const { return storage_bytes_; }

 private:
  struct CacheEntry {
    std::string_view name;  // views the pool, like names_
    TagSymbol symbol = kInvalidTagSymbol;
  };
  static constexpr size_t kCacheSize = 64;

  // First, second and last byte plus length: enough to spread the markup
  // vocabulary (td/tt/tr share first byte and length, cite/code first
  // byte, last byte and length).
  static size_t CacheSlot(std::string_view name) {
    if (name.empty()) return 0;
    const size_t first = static_cast<unsigned char>(name.front());
    const size_t second = static_cast<unsigned char>(name[name.size() > 1]);
    const size_t last = static_cast<unsigned char>(name.back());
    return (first * 31 + second * 11 + last * 7 + name.size()) % kCacheSize;
  }

  TagSymbol InternUncached(std::string_view name);
  std::string_view Store(std::string_view name);

  std::array<CacheEntry, kCacheSize> cache_{};
  std::unordered_map<std::string_view, TagSymbol> map_;
  std::vector<std::string_view> names_;  // indexed by symbol
  std::vector<std::unique_ptr<char[]>> pools_;
  size_t pool_used_ = 0;  // bytes used in pools_.back()
  size_t pool_size_ = 0;  // capacity of pools_.back()
  size_t storage_bytes_ = 0;
};

/// Monotonic block allocator for one document's tag tree.
class DocumentArena {
 public:
  DocumentArena() = default;
  DocumentArena(const DocumentArena&) = delete;
  DocumentArena& operator=(const DocumentArena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two).
  /// Never fails: block allocation growth is bounded by the caller's
  /// DocumentLimits::max_arena_bytes checks against budget_bytes().
  void* Allocate(size_t bytes, size_t alignment);

  /// Constructs a trivially-destructible T in the arena. No destructor
  /// will ever run for it — the memory is released wholesale.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are released without running destructors");
    // Placement new into arena storage — this is the owner the
    // raw-new-delete rule exists to funnel allocations through.
    return new (Allocate(sizeof(T), alignof(T)))  // lint:allow(raw-new-delete)
        T(std::forward<Args>(args)...);
  }

  /// Copies `values` into a contiguous arena-owned array.
  template <typename T>
  std::span<T> CopyArray(const T* values, size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                  std::is_trivially_copyable_v<T>);
    if (count == 0) return {};
    T* out = static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    std::memcpy(out, values, count * sizeof(T));
    return {out, count};
  }

  /// CopyArray for the lexer's per-token arrays (start-tag attributes).
  /// The bytes count in bytes_in_use() like any allocation but are left
  /// out of budget_bytes(): max_arena_bytes budgets the tag tree, and
  /// attributes are bounded by the token and per-tag caps instead.
  template <typename T>
  std::span<const T> CopyTokenArray(const T* values, size_t count) {
    const size_t before = bytes_in_use_;
    const std::span<const T> out = CopyArray(values, count);
    token_bytes_ += bytes_in_use_ - before;
    return out;
  }

  /// Copies `text` into the arena.
  std::string_view CopyString(std::string_view text);

  /// A view over `head` followed by `tail`, materialized in the arena.
  /// When `head` is the most recent arena allocation it is extended in
  /// place (no re-copy of the head bytes).
  std::string_view Concat(std::string_view head, std::string_view tail);

  /// Releases everything allocated since construction or the last Reset,
  /// retaining block capacity for reuse. The intern table survives.
  void Reset();

  /// Bytes handed out since the last Reset (including alignment padding).
  size_t bytes_in_use() const { return bytes_in_use_; }

  /// What DocumentLimits::max_arena_bytes is checked against: the bytes
  /// in use less CopyTokenArray's, plus the intern table's pool (which
  /// survives Reset(), so a worker's distinct names stay charged).
  size_t budget_bytes() const {
    return bytes_in_use_ - token_bytes_ + interner_.storage_bytes();
  }

  /// Total block capacity held by the arena.
  size_t bytes_reserved() const { return bytes_reserved_; }

  TagNameInterner& interner() { return interner_; }
  const TagNameInterner& interner() const { return interner_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
  };

  // Moves the cursor to a (retained or new) block with >= `bytes` free.
  void NextBlock(size_t bytes);

  char* cursor_ = nullptr;
  char* block_end_ = nullptr;
  std::vector<Block> blocks_;
  size_t active_block_ = 0;  // blocks_ index cursor_ points into
  size_t bytes_in_use_ = 0;
  size_t token_bytes_ = 0;  // CopyTokenArray's share of bytes_in_use_
  size_t bytes_reserved_ = 0;
  TagNameInterner interner_;
};

}  // namespace webrbd

#endif  // WEBRBD_HTML_ARENA_H_
