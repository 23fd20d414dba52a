// detlint unit tests: scanner behavior, every rule against its fixture
// under tests/data/detlint/, and the suppression lifecycle.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "detlint/report.h"
#include "detlint/rules.h"
#include "detlint/scanner.h"

namespace {

using namespace detlint;

std::vector<const Rule*> all_rules() {
  register_builtin_rules();
  std::vector<const Rule*> out;
  for (const auto& rule : RuleRegistry::instance().rules()) {
    out.push_back(rule.get());
  }
  return out;
}

FileScan scan_fixture(const std::string& rel) {
  const std::string full = std::string(DETLINT_FIXTURE_DIR) + "/" + rel;
  std::ifstream in(full, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read fixture " << full;
  std::ostringstream buf;
  buf << in.rdbuf();
  return scan_source(rel, buf.str());
}

struct LintResult {
  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
};

LintResult lint_fixture(const std::string& rel) {
  const FileScan scan = scan_fixture(rel);
  LintResult r;
  run_rules(scan, all_rules(), r.findings);
  r.suppressions = collect_suppressions(scan);
  apply_suppressions(r.suppressions, r.findings);
  return r;
}

std::vector<const Finding*> by_rule(const LintResult& r,
                                    const std::string& id) {
  std::vector<const Finding*> out;
  for (const Finding& f : r.findings) {
    if (f.rule == id) out.push_back(&f);
  }
  return out;
}

int unsuppressed_count(const LintResult& r) {
  return static_cast<int>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [](const Finding& f) { return !f.suppressed; }));
}

// ------------------------------------------------------------- scanner

TEST(Scanner, TokensCommentsDirectives) {
  const FileScan scan = scan_source("src/x.cpp",
                                    "#include <map>\n"
                                    "// own line\n"
                                    "int x = 1;  // trailing\n"
                                    "/* block\n   spans */ int y;\n");
  ASSERT_EQ(scan.directives.size(), 1u);
  EXPECT_EQ(scan.directives[0].text, "#include <map>");
  ASSERT_EQ(scan.comments.size(), 3u);
  EXPECT_TRUE(scan.comments[0].own_line);
  EXPECT_EQ(scan.comments[0].line, 2);
  EXPECT_FALSE(scan.comments[1].own_line);
  EXPECT_TRUE(scan.comments[2].own_line);
  EXPECT_EQ(scan.comments[2].line, 4);
  EXPECT_EQ(scan.comments[2].end_line, 5);
  EXPECT_FALSE(scan.is_header);
}

TEST(Scanner, StringLiteralsAreOpaque) {
  // Rule patterns and markers inside string literals must not count:
  // the lexer folds them into single kString tokens.
  const FileScan scan = scan_source(
      "src/x.cpp", "const char* s = \"std::unordered_map rand()\";\n");
  LintResult r;
  r.findings.clear();
  run_rules(scan, all_rules(), r.findings);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(collect_suppressions(scan).empty());
}

TEST(Scanner, RawStringsSpanLines) {
  const FileScan scan = scan_source(
      "src/x.cpp", "const char* s = R\"(line1\nline2)\";\nint z = 3;\n");
  const auto z = std::find_if(
      scan.tokens.begin(), scan.tokens.end(),
      [](const Token& t) { return t.text == "z"; });
  ASSERT_NE(z, scan.tokens.end());
  EXPECT_EQ(z->line, 3);
}

TEST(Scanner, HeaderDetectionAndSourcePaths) {
  EXPECT_TRUE(scan_source("src/a.h", "").is_header);
  EXPECT_FALSE(scan_source("src/a.cpp", "").is_header);
  EXPECT_TRUE(is_source_path("src/a.cc"));
  EXPECT_FALSE(is_source_path("src/a.md"));
}

// ------------------------------------------------------------- fixtures

TEST(DetlintRules, D1FiresOnUnorderedInSrc) {
  const LintResult r = lint_fixture("src/d1_unordered.cpp");
  const auto d1 = by_rule(r, "D1");
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_EQ(d1[0]->line, 6);
  EXPECT_FALSE(d1[0]->suppressed);
  EXPECT_EQ(d1[0]->rule_name, "unordered-iteration");
}

TEST(DetlintRules, D1ScopedToSrc) {
  // The same content outside src/ is not simulation-linked.
  const FileScan scan =
      scan_source("tools/x.cpp", "std::unordered_map<int, int> m;\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  EXPECT_TRUE(by_rule({findings, {}}, "D1").empty());
}

TEST(DetlintRules, D2FiresOnEveryEntropySource) {
  const LintResult r = lint_fixture("src/d2_entropy.cpp");
  const auto d2 = by_rule(r, "D2");
  // srand, time(nullptr), random_device, system_clock::now, rand.
  EXPECT_EQ(d2.size(), 5u);
}

TEST(DetlintRules, D2SkipsBenchPaths) {
  const FileScan scan =
      scan_source("bench/b.cpp", "auto r = rand();\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  EXPECT_TRUE(by_rule({findings, {}}, "D2").empty());
}

TEST(DetlintRules, D3FiresOnThreadId) {
  const LintResult r = lint_fixture("src/d3_thread_id.cpp");
  ASSERT_EQ(by_rule(r, "D3").size(), 1u);
}

TEST(DetlintRules, D4FiresOnPointerKeyOnly) {
  const LintResult r = lint_fixture("src/d4_pointer_key.cpp");
  const auto d4 = by_rule(r, "D4");
  ASSERT_EQ(d4.size(), 1u);
  EXPECT_EQ(d4[0]->line, 10);
}

TEST(DetlintRules, D5FiresOnUnorderedAccumulationOnly) {
  const LintResult r = lint_fixture("src/measure/d5_fp_accum.cpp");
  const auto d5 = by_rule(r, "D5");
  ASSERT_EQ(d5.size(), 1u);
  EXPECT_EQ(d5[0]->line, 11);
}

TEST(DetlintRules, D5ScopedToMeasure) {
  const FileScan scan = scan_source(
      "src/x.cpp",
      "std::unordered_map<int, double> m;\n"
      "double s = 0;\n"
      "void f() { for (auto& kv : m) s += kv.second; }\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  EXPECT_TRUE(by_rule({findings, {}}, "D5").empty());
}

TEST(DetlintRules, D6FiresOnGuardHeldAcrossSubmit) {
  const LintResult r = lint_fixture("src/d6_lock_submit.cpp");
  const auto d6 = by_rule(r, "D6");
  ASSERT_EQ(d6.size(), 1u);
  EXPECT_EQ(d6[0]->line, 13);
}

TEST(DetlintRules, D7FiresOnDefaultConstructedRng) {
  const LintResult r = lint_fixture("src/d7_default_rng.cpp");
  const auto d7 = by_rule(r, "D7");
  // `Rng unseeded;` and the `Rng()` temporary; the `Rng() = default;`
  // declaration and the seeded constructions stay clean.
  ASSERT_EQ(d7.size(), 2u);
  EXPECT_EQ(d7[0]->line, 10);
  EXPECT_EQ(d7[1]->line, 12);
}

TEST(DetlintRules, D8FiresOnDeterminismDebtOnly) {
  const LintResult r = lint_fixture("src/d8_todo.cpp");
  const auto d8 = by_rule(r, "D8");
  ASSERT_EQ(d8.size(), 1u);
  EXPECT_EQ(d8[0]->line, 4);
  EXPECT_EQ(d8[0]->severity, Severity::kWarning);
}

TEST(DetlintRules, S1FiresOnHeaderWithoutPragmaOnce) {
  const LintResult r = lint_fixture("src/s1_missing_pragma.h");
  const auto s1 = by_rule(r, "S1");
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_EQ(s1[0]->line, 1);
}

TEST(DetlintRules, S2FiresOnIncludeHygiene) {
  const LintResult r = lint_fixture("src/s2_includes.cpp");
  const auto s2 = by_rule(r, "S2");
  // parent-relative, <bits/...>, duplicate <vector>.
  ASSERT_EQ(s2.size(), 3u);
}

TEST(DetlintRules, S3FiresOnEveryMalformedMarker) {
  const LintResult r = lint_fixture("src/s3_bad_suppress.cpp");
  EXPECT_EQ(by_rule(r, "S3").size(), 3u);
  // Malformed markers shield nothing: the D1 findings stay live.
  for (const Finding* f : by_rule(r, "D1")) {
    EXPECT_FALSE(f->suppressed);
  }
  EXPECT_TRUE(r.suppressions.empty());
}

TEST(DetlintRules, CleanFixtureIsClean) {
  const LintResult r = lint_fixture("src/clean_ok.cpp");
  EXPECT_EQ(unsuppressed_count(r), 0);
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_TRUE(r.suppressions[0].used);
}

// --------------------------------------------------------- suppressions

TEST(Suppressions, TrailingMarkerCoversItsOwnLine) {
  const FileScan scan = scan_source(
      "src/x.cpp",
      "std::unordered_map<int, int> m;  // det-ok(D1): probe only\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  auto sups = collect_suppressions(scan);
  apply_suppressions(sups, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_EQ(findings[0].reason, "probe only");
}

TEST(Suppressions, OwnLineMarkerCoversNextLine) {
  const FileScan scan =
      scan_source("src/x.cpp",
                  "// det-ok(D1): probe only\n"
                  "std::unordered_map<int, int> m;\n"
                  "std::unordered_map<int, int> n;\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  auto sups = collect_suppressions(scan);
  apply_suppressions(sups, findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_FALSE(findings[1].suppressed);
}

TEST(Suppressions, CommaListCoversMultipleRules) {
  const FileScan scan = scan_source(
      "src/x.cpp",
      "// det-ok(D1, D4): keyed probe by stable address\n"
      "std::unordered_map<int*, int> m;\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  auto sups = collect_suppressions(scan);
  apply_suppressions(sups, findings);
  ASSERT_EQ(sups.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.suppressed) << f.rule;
  }
}

TEST(Suppressions, S3IsNeverSuppressible) {
  const FileScan scan = scan_source(
      "src/x.cpp",
      "// det-ok(S3): trying to silence the syntax check\n"
      "// det-ok(D1) broken marker\n"
      "int x = 1;\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  auto sups = collect_suppressions(scan);
  apply_suppressions(sups, findings);
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [](const Finding& f) { return f.rule == "S3"; });
  ASSERT_NE(it, findings.end());
  EXPECT_FALSE(it->suppressed);
}

TEST(Suppressions, UnusedMarkerIsTracked) {
  const FileScan scan = scan_source(
      "src/x.cpp", "int x = 1;  // det-ok(D1): nothing to shield\n");
  std::vector<Finding> findings;
  run_rules(scan, all_rules(), findings);
  auto sups = collect_suppressions(scan);
  apply_suppressions(sups, findings);
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_FALSE(sups[0].used);
  EXPECT_EQ(sups[0].file, "src/x.cpp");
}

// --------------------------------------------------------------- report

TEST(Report, JsonSchemaAndCounts) {
  const LintResult r = lint_fixture("src/clean_ok.cpp");
  Report report;
  report.findings = r.findings;
  report.files_scanned = 1;
  for (const Suppression& s : r.suppressions) {
    report.suppression_total += 1;
    if (s.used) report.suppression_used += 1;
  }
  const std::string json = render_json(report);
  const auto doc = propsim::Json::parse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->as_string(), "propsim.lint");
  EXPECT_EQ(doc->find("version")->as_double(), 1.0);
  EXPECT_EQ(doc->find("summary")->find("errors")->as_double(), 0.0);
  EXPECT_EQ(doc->find("findings")->size(), report.findings.size());
  EXPECT_EQ(doc->find("suppressions")->find("used")->as_double(), 1.0);
}

TEST(Report, RegistryFindsRulesByIdAndName) {
  register_builtin_rules();
  const RuleRegistry& reg = RuleRegistry::instance();
  EXPECT_EQ(reg.rules().size(), 11u);
  EXPECT_NE(reg.find("D1"), nullptr);
  EXPECT_EQ(reg.find("D1"), reg.find("unordered-iteration"));
  EXPECT_EQ(reg.find("nope"), nullptr);
}

}  // namespace
