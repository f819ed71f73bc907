// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Public facade over the regex parser / compiler / Pike VM. This is the
// matching engine behind the paper's "constant/keyword matching rules": the
// ontology layer compiles data-frame value patterns and keyword phrases to
// Regex objects, and the recognizer runs FindAll over document plain text.

#ifndef WEBRBD_TEXT_REGEX_H_
#define WEBRBD_TEXT_REGEX_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/regex_parser.h"
#include "text/regex_program.h"
#include "text/regex_vm.h"
#include "util/result.h"

namespace webrbd {

/// A compiled, immutable regular expression.
///
/// Thread-compatible: a const Regex may be used from multiple threads.
/// Matching is guaranteed linear in text length (Thompson NFA; no
/// backtracking), so untrusted patterns cannot cause exponential blow-up.
class Regex {
 public:
  /// Compiles `pattern`. See ParseRegex() for the supported dialect.
  [[nodiscard]] static Result<Regex> Compile(std::string_view pattern,
                               RegexOptions options = {});

  /// The original pattern text.
  const std::string& pattern() const { return pattern_; }

  /// True iff the whole text matches.
  bool FullMatch(std::string_view text) const;

  /// True iff any substring matches.
  bool PartialMatch(std::string_view text) const;

  /// Leftmost match at or after `start`, or nullopt.
  std::optional<RegexMatch> Find(std::string_view text, size_t start = 0) const;

  /// All non-overlapping matches, left to right. Empty-width matches advance
  /// by one byte so the scan always terminates.
  std::vector<RegexMatch> FindAll(std::string_view text) const;

  /// Number of non-overlapping matches; cheaper than materializing FindAll
  /// only in allocation, same time complexity.
  size_t CountMatches(std::string_view text) const;

  /// Calls `on_match(const RegexMatch&)` for each FindAll match, in order,
  /// running one reused VM across the whole scan.
  template <typename OnMatch>
  void ForEachMatch(std::string_view text, OnMatch&& on_match) const {
    PikeVm vm(*program_);
    size_t pos = 0;
    while (pos <= text.size()) {
      std::optional<RegexMatch> m = vm.Find(text, pos);
      if (!m.has_value()) break;
      on_match(*m);
      pos = m->end > m->begin ? m->end : m->begin + 1;
    }
  }

  /// Compiled program (exposed for tests and diagnostics).
  const RegexProgram& program() const { return *program_; }

 private:
  Regex(std::string pattern, RegexProgram program)
      : pattern_(std::move(pattern)),
        program_(std::make_shared<const RegexProgram>(std::move(program))) {}

  std::string pattern_;
  // shared_ptr keeps Regex cheaply copyable; the program is immutable.
  std::shared_ptr<const RegexProgram> program_;
};

}  // namespace webrbd

#endif  // WEBRBD_TEXT_REGEX_H_
