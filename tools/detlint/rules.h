// detlint rule catalog.
//
// Same shape as the runtime catalog in src/analysis/lint_rules.h: one
// constant table of rows (id, name, description, fix hint, severity,
// applicable, check) in rules.cpp. A row declares applicability per
// file and appends findings. Rules D1-D8 guard the repo's
// bit-determinism ground rule (docs/PERF.md, ROADMAP); S1-S3 are
// structural hygiene. Findings are suppressed line-by-line with inline
// markers (syntax in docs/ANALYSIS.md and the CLI usage text): own-line
// markers cover the next line, trailing markers their own line. Every
// suppression needs a known rule id and a non-empty reason; malformed
// markers are themselves findings (S3).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "detlint/scanner.h"

namespace detlint {

enum class Severity { kWarning, kError };

struct Finding {
  std::string rule;       // short id: "D1"
  std::string rule_name;  // slug: "unordered-iteration"
  Severity severity = Severity::kError;
  std::string file;
  int line = 0;
  std::string message;
  std::string hint;
  bool suppressed = false;
  std::string reason;  // the marker's reason when suppressed
};

/// One rule: a row of the rule table. `check` receives its own row, so
/// every finding carries the row's id, name, severity and hint.
struct Rule {
  std::string_view id;    // short id: "D1"
  std::string_view name;  // slug: "unordered-iteration"
  std::string_view description;
  /// One-line fix suggestion attached to every finding.
  std::string_view hint;
  Severity severity;
  /// True when the rule wants to look at this file (path scoping).
  bool (*applicable)(const FileScan& file);
  void (*check)(const Rule& rule, const FileScan& file,
                std::vector<Finding>& out);
};

/// The rule catalog in table order.
std::span<const Rule> rules();

/// Row with the given id ("D1") or name ("unordered-iteration"); nullptr
/// when unknown.
const Rule* find_rule(std::string_view id_or_name);

/// One parsed suppression marker, already exploded per rule id.
struct Suppression {
  std::string rule;  // "D1"
  std::string file;
  int line = 0;  // the source line it covers
  std::string reason;
  bool used = false;
};

/// Extracts the well-formed suppression markers of a file. Malformed
/// markers are not returned — the S3 rule reports those.
std::vector<Suppression> collect_suppressions(const FileScan& file);

/// Marks findings covered by a suppression (same rule id and line) and
/// flips `used` on the matching markers. S3 findings are never
/// suppressible — a broken marker must not silence itself.
void apply_suppressions(std::vector<Suppression>& suppressions,
                        std::vector<Finding>& findings);

/// Runs each selected rule applicable to `file`, appending findings.
void run_rules(const FileScan& file,
               const std::vector<const Rule*>& selected,
               std::vector<Finding>& out);

}  // namespace detlint
