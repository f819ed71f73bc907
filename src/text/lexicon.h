// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Lexicon: a dictionary of words and multi-word phrases with position-aware
// matching over plain text. The paper's data frames pair regex-style value
// patterns with lexicons (e.g. lists of automobile makes, given names); the
// recognizer uses both to detect constants and keywords.

#ifndef WEBRBD_TEXT_LEXICON_H_
#define WEBRBD_TEXT_LEXICON_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace webrbd {

namespace internal {

// Hashes std::string keys and std::string_view probes alike, so lookups of
// a token's lowercased view allocate nothing.
struct WordHash {
  using is_transparent = void;
  size_t operator()(std::string_view word) const {
    return std::hash<std::string_view>{}(word);
  }
};

}  // namespace internal

/// A matched lexicon entry within a text.
struct LexiconMatch {
  size_t begin = 0;          ///< byte offset of first matched character
  size_t end = 0;            ///< one past the last matched character
  std::string entry;         ///< the canonical (lowercased) lexicon entry
};

/// The lexicon word tokens of one text: every maximal run of word
/// characters (alphanumerics plus ' - + / #), with its lowercased form.
/// Lowercasing goes into one buffer reused across Tokenize calls, so a
/// text is tokenized once however many lexicons match over it.
class LexiconWords {
 public:
  /// Re-tokenizes `text`, reusing this object's buffers.
  void Tokenize(std::string_view text);

  size_t size() const { return spans_.size(); }
  size_t begin(size_t i) const { return spans_[i].begin; }
  size_t end(size_t i) const { return spans_[i].end; }

  /// Token i, lowercased.
  std::string_view lower(size_t i) const {
    return std::string_view(lower_).substr(spans_[i].begin,
                                           spans_[i].end - spans_[i].begin);
  }

 private:
  struct Span {
    size_t begin;
    size_t end;
  };

  std::string lower_;  // the whole text lowercased: token offsets index it
  std::vector<Span> spans_;
};

/// An immutable-after-build set of words/phrases, matched case-insensitively
/// on word boundaries. Multi-word phrases match across any run of non-word
/// bytes between their words, not only whitespace: "salt lake city" matches
/// "Salt, Lake City".
class Lexicon {
 public:
  Lexicon() = default;

  /// Builds from entries; each entry is a word or a space-separated phrase.
  explicit Lexicon(const std::vector<std::string>& entries);

  /// Adds one word or phrase. Duplicate adds are ignored.
  void Add(std::string_view entry);

  /// Number of distinct entries.
  size_t size() const { return entry_count_; }
  bool empty() const { return entry_count_ == 0; }

  /// True iff the given word/phrase is an entry (case-insensitive).
  bool Contains(std::string_view entry) const;

  /// Finds all non-overlapping entry occurrences, longest-phrase-first at
  /// each position, left to right.
  std::vector<LexiconMatch> FindAll(std::string_view text) const;

  /// Number of matches (same scan as FindAll without materializing).
  size_t CountMatches(std::string_view text) const;

  /// Calls `visit(words)` with every entry's lowercased words, grouped by
  /// first word, each group longest phrase first.
  template <typename Visit>
  void ForEachPhrase(Visit&& visit) const {
    for (const auto& [first, bucket] : by_first_word_) {
      for (const Phrase& phrase : bucket) visit(phrase.words);
    }
  }

 private:
  struct Phrase {
    std::vector<std::string> words;  // lowercased
    std::string canonical;           // words joined by single spaces
  };

  // The longest entry starting at token i, or nullptr.
  const Phrase* LongestAt(const LexiconWords& words, size_t i) const;

  // First lowercased word -> phrases beginning with it, longest first.
  std::unordered_map<std::string, std::vector<Phrase>, internal::WordHash,
                     std::equal_to<>>
      by_first_word_;
  size_t entry_count_ = 0;
};

/// The word tokens of one text as LexiconSet word ids (LexiconSet::Tokenize).
/// A run of tokens that are words of no lexicon is one kUnknownWord token:
/// such a token only separates phrases, so collapsing a run of them
/// changes no match. Buffers are reused across Tokenize calls.
class LexiconTokens {
 public:
  size_t size() const { return ids_.size(); }
  size_t begin(size_t i) const { return spans_[i].begin; }
  size_t end(size_t i) const { return spans_[i].end; }
  std::span<const uint32_t> ids() const { return ids_; }

 private:
  friend class LexiconSet;
  struct Span {
    size_t begin;
    size_t end;
  };

  std::vector<Span> spans_;
  std::vector<uint32_t> ids_;
};

/// Several lexicons matched over one shared tokenization. Every distinct
/// word of every lexicon gets an id at construction; one scan of a text
/// tokenizes it and looks each token up (Tokenize), and each lexicon then
/// matches over the id sequence with Lexicon::FindAll's rule: longest
/// phrase first at each token, non-overlapping, left to right.
class LexiconSet {
 public:
  /// Id of a token that is a word of no lexicon.
  static constexpr uint32_t kUnknownWord = UINT32_MAX;

  LexiconSet() = default;
  explicit LexiconSet(const std::vector<const Lexicon*>& lexicons);

  /// Number of lexicons, in construction order.
  size_t size() const { return lexicons_.size(); }

  /// True when no lexicon has an entry (a scan can skip tokenizing).
  bool empty() const { return word_ends_.empty(); }

  /// Tokenizes `text` into *tokens in one pass: each token is hashed as
  /// its bytes are lowercased and read, and looked up in a flat
  /// open-addressing table over the vocabulary, with no lowercased copy of
  /// the text. A token whose length no vocabulary word has skips the
  /// table.
  void Tokenize(std::string_view text, LexiconTokens* tokens) const;

  /// Calls `on_match(first_token, token_count)` for each match of lexicon
  /// `index` over the ids of a Tokenize result, left to right.
  template <typename OnMatch>
  void ForEachMatch(size_t index, std::span<const uint32_t> ids,
                    OnMatch&& on_match) const {
    const Index& lexicon = lexicons_[index];
    if (lexicon.first.empty()) return;
    size_t i = 0;
    while (i < ids.size()) {
      const uint32_t first = ids[i];
      size_t matched = 0;
      if (first != kUnknownWord) {
        for (uint32_t p = lexicon.first[first]; p < lexicon.first[first + 1];
             ++p) {
          const PhraseIds& phrase = lexicon.phrases[p];
          if (i + phrase.count > ids.size()) continue;
          size_t k = 1;
          while (k < phrase.count &&
                 ids[i + k] == lexicon.words[phrase.begin + k]) {
            ++k;
          }
          if (k == phrase.count) {
            matched = phrase.count;
            break;  // longest first: the first hit is the best hit
          }
        }
      }
      if (matched == 0) {
        ++i;
        continue;
      }
      on_match(i, matched);
      i += matched;
    }
  }

 private:
  struct PhraseIds {
    uint32_t begin;  // into Index::words
    uint32_t count;
  };

  // One lexicon over the shared ids: phrases starting with word w are
  // phrases[first[w] .. first[w + 1]), longest first.
  struct Index {
    std::vector<uint32_t> first;  // empty for an empty lexicon
    std::vector<PhraseIds> phrases;
    std::vector<uint32_t> words;
  };

  // One slot of the vocabulary table: the word's id (kUnknownWord when
  // empty) and the high half of its hash, which rejects most mismatches
  // before the bytes are compared.
  struct Slot {
    uint32_t tag = 0;
    uint32_t word = kUnknownWord;
  };

  // The id of the token text[begin, begin + length) with hash `hash`, or
  // kUnknownWord.
  uint32_t Find(const char* token, size_t length, uint64_t hash) const;
  // The id of vocabulary word `word` (lowercase), added if new.
  uint32_t Intern(std::string_view word);
  // Puts `id` in the first free slot from `hash`'s.
  void Place(uint64_t hash, uint32_t id);
  // The lowercased bytes of word `id`.
  std::string_view Word(uint32_t id) const;

  std::vector<Slot> slots_;  // a power of two, at most half full
  // Word id -> its lowercased bytes: chars_[word_ends_[id - 1],
  // word_ends_[id]), with word_ends_[-1] read as 0.
  std::string chars_;
  std::vector<uint32_t> word_ends_;
  // Bit min(length, 63) is set for every vocabulary word length.
  uint64_t length_mask_ = 0;
  std::vector<Index> lexicons_;
};

}  // namespace webrbd

#endif  // WEBRBD_TEXT_LEXICON_H_
