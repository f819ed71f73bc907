// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Fixture tests for the three deep analysis rules introduced with the
// token-stream lint engine: arena-escape, lock-discipline, and
// metric-catalog. Each rule gets seeded violations that must trigger,
// near-misses that must not, and an inline `lint:allow` escape path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/linter.h"

namespace webrbd {
namespace lint {
namespace {

constexpr const char* kLicense =
    "// Copyright (c) the webrbd authors. Licensed under the Apache License "
    "2.0.\n";

std::vector<LintFinding> LintFixture(
    const LintSource& source, const std::vector<LintSource>& extra = {}) {
  auto linter = Linter::Create();
  EXPECT_TRUE(linter.ok()) << linter.status().ToString();
  linter->CollectDeclarations(source);
  for (const LintSource& other : extra) linter->CollectDeclarations(other);
  std::vector<LintFinding> findings;
  linter->LintFile(source, &findings);
  return findings;
}

bool Triggered(const std::vector<LintFinding>& findings,
               std::string_view rule) {
  for (const LintFinding& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

size_t CountRule(const std::vector<LintFinding>& findings,
                 std::string_view rule) {
  size_t n = 0;
  for (const LintFinding& finding : findings) {
    if (finding.rule == rule) ++n;
  }
  return n;
}

// ------------------------------------------------------------- arena-escape

TEST(ArenaEscapeRuleTest, MemberAssignmentOfBorrowedNodeTriggers) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node) {\n"
                             "  last_node_ = node;\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, ContainerInsertOfBorrowedNodeTriggers) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node) {\n"
                             "  nodes_.push_back(node);\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, BorrowPropagatesThroughViewLocals) {
  // `text` is a view into the arena; storing it in a member escapes too.
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node) {\n"
                             "  auto text = node->text();\n"
                             "  title_ = text;\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, StdMoveDoesNotLaunderTheBorrow) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node) {\n"
                             "  auto text = node->text();\n"
                             "  title_ = std::move(text);\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, ScalarDerivationsDoNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node) {\n"
                             "  count_ = node->children().size();\n"
                             "  depth_ = node->depth();\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, BorrowBuriedInAnotherCallDoesNotTrigger) {
  // The borrow is an argument of IdOf(); what gets stored is IdOf's
  // (scalar) result, not the node.
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node) {\n"
                             "  ids_.push_back(IdOf(node));\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, LocalToLocalAssignmentDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const TagNode* node) {\n"
                             "  const TagNode* cur = node;\n"
                             "  cur = node;\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, ArenaOwningLayerIsExempt) {
  const std::string source = std::string(kLicense) +
                             "void Arena::Adopt(const TagNode* node) {\n"
                             "  nodes_.push_back(node);\n"
                             "}\n";
  auto findings = LintFixture({"src/html/document_arena.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, MemberAssignmentOfBorrowedTokenViewTriggers) {
  // HtmlToken's name/text/attr views borrow the source document buffer
  // (and the lexer arena); stashing one in a member escapes exactly like
  // a TagNode borrow.
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const HtmlToken& token) {\n"
                             "  separator_ = token.name;\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, ContainerInsertOfBorrowedTokenTriggers) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const HtmlToken& token) {\n"
                             "  kept_.push_back(token.text);\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, TokenBorrowPropagatesThroughViewLocals) {
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const HtmlToken& token) {\n"
                             "  std::string_view name = token.name;\n"
                             "  tag_ = name;\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, TokenAttributeSpanPropagatesTheBorrow) {
  // A token's attributes are an array in the lexer's arena; a span local
  // over them is as much a borrow as the token itself.
  const std::string source =
      std::string(kLicense) +
      "void Walker::Visit(const HtmlToken& token) {\n"
      "  std::span<const HtmlAttribute> attrs = token.attrs;\n"
      "  last_attrs_ = attrs;\n"
      "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_TRUE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, TokenAttributeSpanScalarsDoNotTrigger) {
  // The count is a value copy; a span of anything but attributes is not
  // tracked as a token borrow.
  const std::string source =
      std::string(kLicense) +
      "void Walker::Visit(const HtmlToken& token) {\n"
      "  std::span<const HtmlAttribute> attrs = token.attrs;\n"
      "  attr_count_ = attrs.size();\n"
      "  std::span<const int> ids = token.ids;\n"
      "  ids_ = ids;\n"
      "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, TokenScalarFieldsDoNotTrigger) {
  // begin/end/kind/self_closing are value copies, not borrows.
  const std::string source = std::string(kLicense) +
                             "void Walker::Visit(const HtmlToken& token) {\n"
                             "  begin_ = token.begin;\n"
                             "  end_ = token.end;\n"
                             "  kind_ = token.kind;\n"
                             "  closed_ = token.self_closing;\n"
                             "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, CopyingTokenViewToStringDoesNotTrigger) {
  // The blessed fix: materialize the view into an owning std::string.
  const std::string source =
      std::string(kLicense) +
      "void Walker::Visit(const HtmlToken& token) {\n"
      "  names_.push_back(std::string(token.name));\n"
      "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, LexerLayerIsExemptForTokens) {
  const std::string source = std::string(kLicense) +
                             "void Lexer::Flush(const HtmlToken& token) {\n"
                             "  tokens_.push_back(token);\n"
                             "}\n";
  auto findings = LintFixture({"src/html/lexer.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

TEST(ArenaEscapeRuleTest, InlineAllowSuppresses) {
  const std::string source =
      std::string(kLicense) +
      "void Walker::Visit(const TagNode* node) {\n"
      "  last_node_ = node;  // lint:allow(arena-escape)\n"
      "}\n";
  auto findings = LintFixture({"src/extract/walker.cc", source});
  EXPECT_FALSE(Triggered(findings, "arena-escape"));
}

// ---------------------------------------------------------- lock-discipline

TEST(LockDisciplineRuleTest, GuardedFieldWithoutLockTriggers) {
  const std::string source = std::string(kLicense) +
                             "class Q {\n"
                             " public:\n"
                             "  void Push(int v) { items_.push_back(v); }\n"
                             " private:\n"
                             "  Mutex mu_;\n"
                             "  std::vector<int> items_ "
                             "WEBRBD_GUARDED_BY(mu_);\n"
                             "};\n";
  auto findings = LintFixture({"src/util/q.cc", source});
  EXPECT_TRUE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, GuardedFieldUnderMutexLockDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "class Q {\n"
                             " public:\n"
                             "  void Push(int v) {\n"
                             "    MutexLock lock(&mu_);\n"
                             "    items_.push_back(v);\n"
                             "  }\n"
                             " private:\n"
                             "  Mutex mu_;\n"
                             "  std::vector<int> items_ "
                             "WEBRBD_GUARDED_BY(mu_);\n"
                             "};\n";
  auto findings = LintFixture({"src/util/q.cc", source});
  EXPECT_FALSE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, GuardedFieldUnderStdLockGuardDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "class Q {\n"
                             " public:\n"
                             "  void Push(int v) {\n"
                             "    std::lock_guard<std::mutex> lock(mu_);\n"
                             "    items_.push_back(v);\n"
                             "  }\n"
                             " private:\n"
                             "  std::mutex mu_;\n"
                             "  std::vector<int> items_ "
                             "WEBRBD_GUARDED_BY(mu_);\n"
                             "};\n";
  auto findings = LintFixture({"src/util/q.cc", source});
  EXPECT_FALSE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, RequiresContractSatisfiesGuardedAccess) {
  const std::string source = std::string(kLicense) +
                             "class Q {\n"
                             " public:\n"
                             "  void Drain() WEBRBD_REQUIRES(mu_) { "
                             "items_.clear(); }\n"
                             " private:\n"
                             "  Mutex mu_;\n"
                             "  std::vector<int> items_ "
                             "WEBRBD_GUARDED_BY(mu_);\n"
                             "};\n";
  auto findings = LintFixture({"src/util/q.cc", source});
  EXPECT_FALSE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, CallingRequiresFunctionWithoutLockTriggers) {
  const std::string source = std::string(kLicense) +
                             "class Q {\n"
                             " public:\n"
                             "  void Drain() WEBRBD_REQUIRES(mu_) { n_ = 0; }\n"
                             "  void Bad() { Drain(); }\n"
                             "  void Good() {\n"
                             "    MutexLock lock(&mu_);\n"
                             "    Drain();\n"
                             "  }\n"
                             " private:\n"
                             "  Mutex mu_;\n"
                             "  int n_ = 0;\n"
                             "};\n";
  auto findings = LintFixture({"src/util/q.cc", source});
  EXPECT_EQ(CountRule(findings, "lock-discipline"), 1u);  // Bad() only
}

TEST(LockDisciplineRuleTest, CallingExcludesFunctionWithLockHeldTriggers) {
  const std::string source = std::string(kLicense) +
                             "class Q {\n"
                             " public:\n"
                             "  void Reset() WEBRBD_EXCLUDES(mu_) {\n"
                             "    MutexLock lock(&mu_);\n"
                             "    n_ = 0;\n"
                             "  }\n"
                             "  void Bad() {\n"
                             "    MutexLock lock(&mu_);\n"
                             "    Reset();\n"
                             "  }\n"
                             " private:\n"
                             "  Mutex mu_;\n"
                             "  int n_ = 0;\n"
                             "};\n";
  auto findings = LintFixture({"src/util/q.cc", source});
  EXPECT_TRUE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, LockOrderInversionTriggers) {
  const std::string source = std::string(kLicense) +
                             "void First() {\n"
                             "  MutexLock l1(&g_mu_a);\n"
                             "  MutexLock l2(&g_mu_b);\n"
                             "}\n"
                             "void Second() {\n"
                             "  MutexLock l1(&g_mu_b);\n"
                             "  MutexLock l2(&g_mu_a);\n"
                             "}\n";
  auto findings = LintFixture({"src/core/order.cc", source});
  EXPECT_TRUE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, ConsistentLockOrderDoesNotTrigger) {
  const std::string source = std::string(kLicense) +
                             "void First() {\n"
                             "  MutexLock l1(&g_mu_a);\n"
                             "  MutexLock l2(&g_mu_b);\n"
                             "}\n"
                             "void Second() {\n"
                             "  MutexLock l1(&g_mu_a);\n"
                             "  MutexLock l2(&g_mu_b);\n"
                             "}\n";
  auto findings = LintFixture({"src/core/order.cc", source});
  EXPECT_FALSE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, SequentialLocksAreNotAnOrderEdge) {
  // The first lock's scope ends before the second is taken: no nesting,
  // no edge, no inversion even though the textual order differs.
  const std::string source = std::string(kLicense) +
                             "void First() {\n"
                             "  { MutexLock l1(&g_mu_a); }\n"
                             "  { MutexLock l2(&g_mu_b); }\n"
                             "}\n"
                             "void Second() {\n"
                             "  { MutexLock l1(&g_mu_b); }\n"
                             "  { MutexLock l2(&g_mu_a); }\n"
                             "}\n";
  auto findings = LintFixture({"src/core/order.cc", source});
  EXPECT_FALSE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, SameNamedFieldInOtherFileDoesNotCrossTalk) {
  // q.h declares a guarded `items_`; an unrelated file's `items_` (of a
  // different class, different stem) must not be checked against it.
  const LintSource header{
      "src/util/q.h", std::string(kLicense) +
                          "class Q {\n"
                          "  Mutex mu_;\n"
                          "  std::vector<int> items_ "
                          "WEBRBD_GUARDED_BY(mu_);\n"
                          "};\n"};
  const std::string other = std::string(kLicense) +
                            "void Other::Add(int v) { items_.push_back(v); }\n";
  auto findings = LintFixture({"src/core/other.cc", other}, {header});
  EXPECT_FALSE(Triggered(findings, "lock-discipline"));
}

TEST(LockDisciplineRuleTest, InlineAllowSuppresses) {
  const std::string source =
      std::string(kLicense) +
      "class Q {\n"
      " public:\n"
      "  void Push(int v) { items_.push_back(v); }  "
      "// lint:allow(lock-discipline)\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  std::vector<int> items_ WEBRBD_GUARDED_BY(mu_);\n"
      "};\n";
  auto findings = LintFixture({"src/util/q.cc", source});
  EXPECT_FALSE(Triggered(findings, "lock-discipline"));
}

// ----------------------------------------------------------- metric-catalog

const char* kCatalogFixture =
    "// Copyright (c) the webrbd authors. Licensed under the Apache License "
    "2.0.\n"
    "namespace webrbd { namespace obs { namespace metric_names {\n"
    "inline constexpr std::string_view kKnown = \"webrbd_known_total\";\n"
    "inline constexpr std::string_view kDead = \"webrbd_dead_total\";\n"
    "}}}\n";

TEST(MetricCatalogRuleTest, UndeclaredMetricLiteralTriggers) {
  const std::string source =
      std::string(kLicense) +
      "void F() { Reg().GetCounter(\"webrbd_unlisted_total\"); }\n";
  auto findings = LintFixture({"src/extract/use.cc", source},
                              {{"src/obs/stages.h", kCatalogFixture}});
  EXPECT_TRUE(Triggered(findings, "metric-catalog"));
}

TEST(MetricCatalogRuleTest, DeclaredMetricLiteralDoesNotTrigger) {
  const std::string source =
      std::string(kLicense) +
      "void F() { Reg().GetCounter(\"webrbd_known_total\"); }\n";
  auto findings = LintFixture({"src/extract/use.cc", source},
                              {{"src/obs/stages.h", kCatalogFixture}});
  EXPECT_FALSE(Triggered(findings, "metric-catalog"));
}

TEST(MetricCatalogRuleTest, NonMetricWebrbdStringsDoNotTrigger) {
  // Tool banners and other prose starting with the prefix are not metric
  // names (spaces, colons, uppercase all disqualify).
  const std::string source =
      std::string(kLicense) +
      "void F() { Log(\"webrbd_lint: done\"); Log(\"webrbd_X\"); }\n";
  auto findings = LintFixture({"src/extract/use.cc", source},
                              {{"src/obs/stages.h", kCatalogFixture}});
  EXPECT_FALSE(Triggered(findings, "metric-catalog"));
}

TEST(MetricCatalogRuleTest, UnreferencedCatalogConstantTriggers) {
  // kKnown is referenced by the extra file; kDead is not.
  const std::string user =
      std::string(kLicense) +
      "void F() { Reg().GetCounter(metric_names::kKnown); }\n";
  auto findings = LintFixture({"src/obs/stages.h", kCatalogFixture},
                              {{"src/extract/use.cc", user}});
  ASSERT_EQ(CountRule(findings, "metric-catalog"), 1u);
  for (const LintFinding& finding : findings) {
    if (finding.rule != "metric-catalog") continue;
    EXPECT_NE(finding.message.find("kDead"), std::string::npos);
  }
}

TEST(MetricCatalogRuleTest, FullyReferencedCatalogDoesNotTrigger) {
  const std::string user =
      std::string(kLicense) +
      "void F() {\n"
      "  Reg().GetCounter(metric_names::kKnown);\n"
      "  Reg().GetCounter(metric_names::kDead);\n"
      "}\n";
  auto findings = LintFixture({"src/obs/stages.h", kCatalogFixture},
                              {{"src/extract/use.cc", user}});
  EXPECT_FALSE(Triggered(findings, "metric-catalog"));
}

TEST(MetricCatalogRuleTest, RuleDisarmsWithoutTheCatalogInTheFileSet) {
  // Linting a subtree that does not include src/obs/stages.h must not
  // flood every metric literal.
  const std::string source =
      std::string(kLicense) +
      "void F() { Reg().GetCounter(\"webrbd_unlisted_total\"); }\n";
  auto findings = LintFixture({"src/extract/use.cc", source});
  EXPECT_FALSE(Triggered(findings, "metric-catalog"));
}

TEST(MetricCatalogRuleTest, TestFilesAreExemptFromTheLiteralCheck) {
  const std::string source =
      std::string(kLicense) +
      "void F() { Expect(\"webrbd_known_total_seconds_count\"); }\n";
  auto findings = LintFixture({"tests/obs/metrics_test.cc", source},
                              {{"src/obs/stages.h", kCatalogFixture}});
  EXPECT_FALSE(Triggered(findings, "metric-catalog"));
}

TEST(MetricCatalogRuleTest, InlineAllowSuppresses) {
  const std::string source =
      std::string(kLicense) +
      "void F() {\n"
      "  Reg().GetCounter(\"webrbd_unlisted_total\");  "
      "// lint:allow(metric-catalog)\n"
      "}\n";
  auto findings = LintFixture({"src/extract/use.cc", source},
                              {{"src/obs/stages.h", kCatalogFixture}});
  EXPECT_FALSE(Triggered(findings, "metric-catalog"));
}

}  // namespace
}  // namespace lint
}  // namespace webrbd
