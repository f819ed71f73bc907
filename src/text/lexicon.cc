// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/lexicon.h"

#include <algorithm>

#include "util/string_util.h"

namespace webrbd {

namespace {

// A lexicon "word" is a maximal run of alphanumerics plus the punctuation
// that occurs inside real-world terms: apostrophes ("O'Brien"), hyphens
// ("F-150"), pluses ("C++"), slashes ("TCP/IP", "AS/400"), and hashes.
// Tokenizing reads one table entry per byte: the byte's lowercase form, or
// 0 for a byte that is not a word character.
struct WordTable {
  char lower[256] = {};

  constexpr WordTable() {
    for (int c = 0; c < 256; ++c) {
      const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9');
      if (alnum || c == '\'' || c == '-' || c == '+' || c == '/' || c == '#') {
        lower[c] = static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
      }
    }
  }
};

constexpr WordTable kWordTable;

char WordLower(char c) {
  return kWordTable.lower[static_cast<unsigned char>(c)];
}

}  // namespace

void LexiconWords::Tokenize(std::string_view text) {
  lower_.resize(text.size());
  spans_.clear();
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && WordLower(text[i]) == 0) ++i;
    const size_t start = i;
    char lower = 0;
    while (i < text.size() && (lower = WordLower(text[i])) != 0) {
      lower_[i] = lower;
      ++i;
    }
    if (i > start) spans_.push_back(Span{start, i});
  }
}

Lexicon::Lexicon(const std::vector<std::string>& entries) {
  for (const std::string& entry : entries) Add(entry);
}

void Lexicon::Add(std::string_view entry) {
  std::vector<std::string> raw_words = SplitWhitespace(entry);
  if (raw_words.empty()) return;
  Phrase phrase;
  phrase.words.reserve(raw_words.size());
  for (const std::string& w : raw_words) {
    phrase.words.push_back(AsciiToLower(w));
  }
  phrase.canonical = Join(phrase.words, " ");

  std::vector<Phrase>& bucket = by_first_word_[phrase.words[0]];
  for (const Phrase& existing : bucket) {
    if (existing.canonical == phrase.canonical) return;  // duplicate
  }
  // Longest phrases first so FindAll prefers "salt lake city" over "salt":
  // insert after every phrase at least as long.
  auto at = std::upper_bound(bucket.begin(), bucket.end(), phrase.words.size(),
                             [](size_t length, const Phrase& existing) {
                               return length > existing.words.size();
                             });
  bucket.insert(at, std::move(phrase));
  ++entry_count_;
}

bool Lexicon::Contains(std::string_view entry) const {
  std::vector<std::string> words = SplitWhitespace(AsciiToLower(entry));
  if (words.empty()) return false;
  auto it = by_first_word_.find(words[0]);
  if (it == by_first_word_.end()) return false;
  std::string canonical = Join(words, " ");
  for (const Phrase& phrase : it->second) {
    if (phrase.canonical == canonical) return true;
  }
  return false;
}

const Lexicon::Phrase* Lexicon::LongestAt(const LexiconWords& words,
                                          size_t i) const {
  auto it = by_first_word_.find(words.lower(i));
  if (it == by_first_word_.end()) return nullptr;
  for (const Phrase& phrase : it->second) {
    if (i + phrase.words.size() > words.size()) continue;
    size_t k = 1;
    while (k < phrase.words.size() && words.lower(i + k) == phrase.words[k]) {
      ++k;
    }
    // Buckets are longest-first; the first hit is the best hit.
    if (k == phrase.words.size()) return &phrase;
  }
  return nullptr;
}

std::vector<LexiconMatch> Lexicon::FindAll(std::string_view text) const {
  std::vector<LexiconMatch> matches;
  LexiconWords words;
  words.Tokenize(text);
  size_t i = 0;
  while (i < words.size()) {
    const Phrase* phrase = LongestAt(words, i);
    if (phrase == nullptr) {
      ++i;
      continue;
    }
    const size_t last = i + phrase->words.size() - 1;
    matches.push_back(
        LexiconMatch{words.begin(i), words.end(last), phrase->canonical});
    i = last + 1;
  }
  return matches;
}

size_t Lexicon::CountMatches(std::string_view text) const {
  LexiconWords words;
  words.Tokenize(text);
  size_t count = 0;
  size_t i = 0;
  while (i < words.size()) {
    const Phrase* phrase = LongestAt(words, i);
    if (phrase == nullptr) {
      ++i;
      continue;
    }
    ++count;
    i += phrase->words.size();
  }
  return count;
}

namespace {

// The token hash: one shift-add step per lowercased byte while the token is
// read, then a finalizer (MurmurHash3's fmix64) so that both halves of the
// result mix every byte: the low half picks the slot, the high half is the
// slot's tag.
constexpr uint64_t kHashSeed = 5381;

uint64_t HashStep(uint64_t h, char lower) {
  return (h << 5) + h + static_cast<unsigned char>(lower);
}

uint64_t FinishHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

uint64_t LengthBit(size_t length) {
  return uint64_t{1} << (length < 63 ? length : 63);
}

}  // namespace

LexiconSet::LexiconSet(const std::vector<const Lexicon*>& lexicons) {
  // Pass 1: every lexicon's phrases as runs of word ids, interning each
  // new word in the flat table as it is met.
  std::vector<std::vector<uint32_t>> ids(lexicons.size());
  std::vector<std::vector<PhraseIds>> runs(lexicons.size());
  for (size_t l = 0; l < lexicons.size(); ++l) {
    lexicons[l]->ForEachPhrase([&](const std::vector<std::string>& words) {
      runs[l].push_back(PhraseIds{static_cast<uint32_t>(ids[l].size()),
                                  static_cast<uint32_t>(words.size())});
      for (const std::string& word : words) ids[l].push_back(Intern(word));
    });
  }
  // Pass 2: each lexicon's runs bucketed by first id with a counting sort,
  // which keeps each bucket's longest-first order.
  const size_t vocabulary_size = word_ends_.size();
  for (size_t l = 0; l < lexicons.size(); ++l) {
    Index& index = lexicons_.emplace_back();
    if (runs[l].empty()) continue;
    index.first.assign(vocabulary_size + 1, 0);
    for (const PhraseIds& run : runs[l]) ++index.first[ids[l][run.begin] + 1];
    for (size_t w = 0; w < vocabulary_size; ++w) {
      index.first[w + 1] += index.first[w];
    }
    std::vector<uint32_t> fill(index.first.begin(), index.first.end() - 1);
    index.phrases.resize(runs[l].size());
    for (const PhraseIds& run : runs[l]) {
      index.phrases[fill[ids[l][run.begin]]++] = run;
    }
    index.words = std::move(ids[l]);
  }
}

uint32_t LexiconSet::Intern(std::string_view word) {
  uint64_t h = kHashSeed;
  for (char c : word) h = HashStep(h, c);
  h = FinishHash(h);
  // Keep the table at most half full; the first word allocates it.
  if (2 * (word_ends_.size() + 1) > slots_.size()) {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), Slot{});
    for (uint32_t id = 0; id < word_ends_.size(); ++id) {
      uint64_t g = kHashSeed;
      for (char c : Word(id)) g = HashStep(g, c);
      Place(FinishHash(g), id);
    }
  }
  const size_t mask = slots_.size() - 1;
  for (size_t slot = h & mask; slots_[slot].word != kUnknownWord;
       slot = (slot + 1) & mask) {
    const Slot entry = slots_[slot];
    if (entry.tag == static_cast<uint32_t>(h >> 32) &&
        Word(entry.word) == word) {
      return entry.word;
    }
  }
  const uint32_t id = static_cast<uint32_t>(word_ends_.size());
  chars_ += word;
  word_ends_.push_back(static_cast<uint32_t>(chars_.size()));
  length_mask_ |= LengthBit(word.size());
  Place(h, id);
  return id;
}

void LexiconSet::Place(uint64_t hash, uint32_t id) {
  const size_t mask = slots_.size() - 1;
  size_t slot = hash & mask;
  while (slots_[slot].word != kUnknownWord) slot = (slot + 1) & mask;
  slots_[slot] = Slot{static_cast<uint32_t>(hash >> 32), id};
}

std::string_view LexiconSet::Word(uint32_t id) const {
  const uint32_t begin = id == 0 ? 0 : word_ends_[id - 1];
  return std::string_view(chars_).substr(begin, word_ends_[id] - begin);
}

uint32_t LexiconSet::Find(const char* token, size_t length,
                          uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const Slot entry = slots_[slot];
    if (entry.word == kUnknownWord) return kUnknownWord;
    if (entry.tag != tag) continue;
    const uint32_t begin = entry.word == 0 ? 0 : word_ends_[entry.word - 1];
    if (word_ends_[entry.word] - begin != length) continue;
    size_t k = 0;
    while (k < length && WordLower(token[k]) == chars_[begin + k]) ++k;
    if (k == length) return entry.word;
  }
}

void LexiconSet::Tokenize(std::string_view text, LexiconTokens* tokens) const {
  tokens->spans_.clear();
  tokens->ids_.clear();
  if (empty()) return;
  const char* data = text.data();
  const size_t size = text.size();
  bool after_unknown = false;
  size_t i = 0;
  while (true) {
    while (i < size && WordLower(data[i]) == 0) ++i;
    if (i == size) break;
    const size_t start = i;
    uint64_t h = kHashSeed;
    for (char lower; i < size && (lower = WordLower(data[i])) != 0; ++i) {
      h = HashStep(h, lower);
    }
    const size_t length = i - start;
    const uint32_t id = (length_mask_ & LengthBit(length)) != 0
                            ? Find(data + start, length, FinishHash(h))
                            : kUnknownWord;
    if (id == kUnknownWord) {
      if (after_unknown) continue;  // one token stands for the whole run
      after_unknown = true;
    } else {
      after_unknown = false;
    }
    tokens->spans_.push_back(LexiconTokens::Span{start, i});
    tokens->ids_.push_back(id);
  }
}

}  // namespace webrbd
