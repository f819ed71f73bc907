// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/regex.h"

#include "text/regex_compiler.h"

namespace webrbd {

Result<Regex> Regex::Compile(std::string_view pattern, RegexOptions options) {
  auto ast = ParseRegex(pattern, options);
  if (!ast.ok()) return ast.status();
  auto program = CompileRegex(**ast);
  if (!program.ok()) return program.status();
  RegexProgram compiled = std::move(program).value();
  compiled.closure_budget = options.closure_budget;
  return Regex(std::string(pattern), std::move(compiled));
}

bool Regex::FullMatch(std::string_view text) const {
  return VmFullMatch(*program_, text);
}

bool Regex::PartialMatch(std::string_view text) const {
  return VmFind(*program_, text, 0).has_value();
}

std::optional<RegexMatch> Regex::Find(std::string_view text,
                                      size_t start) const {
  return VmFind(*program_, text, start);
}

std::vector<RegexMatch> Regex::FindAll(std::string_view text) const {
  std::vector<RegexMatch> matches;
  ForEachMatch(text, [&matches](const RegexMatch& m) { matches.push_back(m); });
  return matches;
}

size_t Regex::CountMatches(std::string_view text) const {
  size_t count = 0;
  ForEachMatch(text, [&count](const RegexMatch&) { ++count; });
  return count;
}

}  // namespace webrbd
