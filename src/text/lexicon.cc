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

LexiconSet::LexiconSet(const std::vector<const Lexicon*>& lexicons) {
  // Pass 1: ids for every word of every phrase.
  for (const Lexicon* lexicon : lexicons) {
    lexicon->ForEachPhrase([this](const std::vector<std::string>& words) {
      for (const std::string& word : words) {
        vocabulary_.try_emplace(word,
                                static_cast<uint32_t>(vocabulary_.size()));
      }
    });
  }
  // Pass 2: each lexicon's phrases as id runs, bucketed by first id with a
  // counting sort, which keeps each bucket's longest-first order.
  const size_t vocabulary_size = vocabulary_.size();
  std::vector<uint32_t> ids;
  std::vector<PhraseIds> runs;
  for (const Lexicon* lexicon : lexicons) {
    Index& index = lexicons_.emplace_back();
    if (lexicon->empty()) continue;
    ids.clear();
    runs.clear();
    lexicon->ForEachPhrase([&](const std::vector<std::string>& words) {
      runs.push_back(PhraseIds{static_cast<uint32_t>(ids.size()),
                               static_cast<uint32_t>(words.size())});
      for (const std::string& word : words) {
        ids.push_back(vocabulary_.find(word)->second);
      }
    });
    index.first.assign(vocabulary_size + 1, 0);
    for (const PhraseIds& run : runs) ++index.first[ids[run.begin] + 1];
    for (size_t w = 0; w < vocabulary_size; ++w) {
      index.first[w + 1] += index.first[w];
    }
    std::vector<uint32_t> fill(index.first.begin(), index.first.end() - 1);
    index.phrases.resize(runs.size());
    for (const PhraseIds& run : runs) {
      index.phrases[fill[ids[run.begin]]++] = run;
    }
    index.words = ids;
  }
}

void LexiconSet::Lookup(const LexiconWords& words,
                        std::vector<uint32_t>* ids) const {
  ids->resize(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    auto it = vocabulary_.find(words.lower(i));
    (*ids)[i] = it == vocabulary_.end() ? kUnknownWord : it->second;
  }
}

}  // namespace webrbd
