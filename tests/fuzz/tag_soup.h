// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Seeded tag-soup generator shared by the HTML fuzz drivers
// (tests/html/fuzz_test.cc) and the balance differential test: random
// nesting, stray brackets, unclosed and overclosed tags, comments and
// attribute junk — the malformations of the paper's open-web corpus.

#ifndef WEBRBD_TESTS_FUZZ_TAG_SOUP_H_
#define WEBRBD_TESTS_FUZZ_TAG_SOUP_H_

#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace webrbd {
namespace fuzz {

/// Knobs for RandomTagSoup. The defaults are the original soup; raising
/// either skews it toward the shapes Step 2 rewrites most.
struct TagSoupOptions {
  /// Chance that an opened tag is written <x/>.
  double self_close_chance = 0.1;

  /// Chance, before each step, of an extra comment, declaration or
  /// processing instruction. Zero draws nothing, which keeps the default
  /// soup identical for a given seed.
  double comment_chance = 0.0;
};

/// Generates adversarial pseudo-HTML of at least `target_size` bytes.
inline std::string RandomTagSoup(Rng* rng, size_t target_size,
                                 const TagSoupOptions& options = {}) {
  static const char* kNames[] = {"a", "b",  "td", "tr",    "table", "p",
                                 "hr", "br", "h1", "font",  "div",  "x-y"};
  static const char* kJunk[] = {
      "< not a tag", ">", "<<", "&amp;", "<!-- comment <b> -->",
      "<!DOCTYPE html>", "<?php echo ?>", "plain words here ",
      "\"quotes\" and 'more' ", "<>", "</>", "1998 ",
  };
  static const char* kComments[] = {"<!-- c -->", "<!-- </td> -->",
                                    "<!x>", "<?pi?>"};
  std::string out;
  std::vector<std::string> open;
  while (out.size() < target_size) {
    if (options.comment_chance > 0 && rng->Chance(options.comment_chance)) {
      out += kComments[rng->Below(4)];
    }
    switch (rng->Below(8)) {
      case 0:
      case 1: {  // open a tag, sometimes with attributes
        std::string name = kNames[rng->Below(12)];
        out += "<" + name;
        if (rng->Chance(0.3)) out += " attr=\"v>v\"";
        if (rng->Chance(0.2)) out += " bare";
        if (rng->Chance(options.self_close_chance)) out += "/";
        out += ">";
        open.push_back(std::move(name));
        break;
      }
      case 2: {  // close the innermost open tag
        if (!open.empty()) {
          out += "</" + open.back() + ">";
          open.pop_back();
        }
        break;
      }
      case 3: {  // close a random (possibly mismatched) tag
        out += std::string("</") + kNames[rng->Below(12)] + ">";
        break;
      }
      case 4:
      case 5:
        out += "text ";
        break;
      case 6:
        out += kJunk[rng->Below(12)];
        break;
      case 7:  // truncated tag
        if (rng->Chance(0.3)) out += "<b";
        else out += "word ";
        break;
    }
  }
  return out;
}

}  // namespace fuzz
}  // namespace webrbd

#endif  // WEBRBD_TESTS_FUZZ_TAG_SOUP_H_
