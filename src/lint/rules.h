// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The multi-pass rule API of the lint engine. Rules run in two passes
// driven by Linter (lint/linter.h):
//
//   pass 1  Collect(file, corpus)  — every file, gathering cross-file facts
//                                    (declared Status functions, GUARDED_BY
//                                    annotations, lock-order edges, the
//                                    metric catalog, ...);
//   pass 2  Check(file, corpus)    — every file again, reporting findings
//                                    against the completed corpus.
//
// Findings go through the Reporter, which drops findings on lines carrying
// `// lint:allow(<rule>)` and fills in the source line and caret column.

#ifndef WEBRBD_LINT_RULES_H_
#define WEBRBD_LINT_RULES_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/analysis.h"
#include "lint/linter.h"

namespace webrbd {
namespace lint {

/// Cross-file facts accumulated by pass 1 and read by pass 2.
struct Corpus {
  /// Names of functions whose return type is Status or Result<...>.
  std::set<std::string> status_functions;

  /// One WEBRBD_GUARDED_BY(mutex) field annotation. `stem` is the
  /// declaring file's path without extension ("src/util/thread_pool");
  /// accesses are only enforced in files sharing that stem, which keeps
  /// same-named fields of unrelated classes from cross-talking.
  struct GuardedField {
    std::string mutex;
    std::string stem;
    std::string path;
    size_t line = 0;
  };
  std::map<std::string, GuardedField> guarded_fields;  // field name -> guard

  /// WEBRBD_REQUIRES/WEBRBD_EXCLUDES contracts on a function, keyed by the
  /// function's unqualified name; enforced same-stem like guarded fields.
  struct FnContract {
    std::set<std::string> requires_held;
    std::set<std::string> excludes_held;
    std::string stem;
  };
  std::map<std::string, FnContract> fn_contracts;

  /// First site at which `outer` was held while `inner` was acquired.
  struct LockSite {
    std::string path;
    size_t line = 0;
  };
  std::map<std::pair<std::string, std::string>, LockSite> lock_edges;

  /// The documented metric catalog (src/obs/stages.h): metric name
  /// literal -> declaring constant, plus which constants are referenced
  /// anywhere outside their declaration.
  bool catalog_seen = false;
  std::map<std::string, std::string> metric_catalog;
  std::map<std::string, size_t> catalog_decl_line;  // constant -> line
  std::set<std::string> referenced_constants;
};

/// Finding sink for one file: applies inline `// lint:allow(<rule>)`
/// filtering and fills in line text and caret position.
class Reporter {
 public:
  Reporter(const FileAnalysis& fa, std::vector<LintFinding>* findings)
      : fa_(fa), findings_(findings) {}

  /// Reports at a line/column (column 0 = whole-line finding, no caret).
  void Report(std::string_view rule, size_t line, size_t column,
              std::string message);

  /// Reports at a token's position.
  void ReportAt(std::string_view rule, const Token& token,
                std::string message) {
    Report(rule, token.line, token.column, std::move(message));
  }

  const FileAnalysis& file() const { return fa_; }

 private:
  const FileAnalysis& fa_;
  std::vector<LintFinding>* findings_;
};

/// One lint rule: static metadata plus the two passes.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual LintRuleInfo info() const = 0;
  virtual void Collect(const FileAnalysis& fa, Corpus* corpus) {
    (void)fa;
    (void)corpus;
  }
  virtual void Check(const FileAnalysis& fa, const Corpus& corpus,
                     Reporter* reporter) const = 0;
};

/// The eight foundational rules (license-header ... tagnode-recursion), in
/// catalog order.
std::vector<std::unique_ptr<Rule>> MakeCoreRules();

/// The deep structural rules, in catalog order.
std::unique_ptr<Rule> MakeArenaEscapeRule();
std::unique_ptr<Rule> MakeLockDisciplineRule();
std::unique_ptr<Rule> MakeMetricCatalogRule();

/// Every rule, in catalog order (core + deep).
std::vector<std::unique_ptr<Rule>> MakeAllRules();

}  // namespace lint
}  // namespace webrbd

#endif  // WEBRBD_LINT_RULES_H_
