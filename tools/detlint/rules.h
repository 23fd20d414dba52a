// detlint rule registry.
//
// Mirrors the runtime registry in src/analysis/lint_rules.h: stateless
// rule objects self-describe (id, name, description, fix hint), declare
// applicability per file, and append findings. Rules D1-D8 guard the
// repo's bit-determinism ground rule (docs/PERF.md, ROADMAP); S1-S3 are
// structural hygiene. Findings are suppressed line-by-line with inline
// markers (syntax in docs/ANALYSIS.md and the CLI usage text): own-line
// markers cover the next line, trailing markers their own line. Every
// suppression needs a known rule id and a non-empty reason; malformed
// markers are themselves findings (S3).
#pragma once

#include <memory>
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

class Rule {
 public:
  virtual ~Rule() = default;

  virtual std::string_view id() const = 0;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  /// One-line fix suggestion attached to every finding.
  virtual std::string_view hint() const = 0;
  virtual Severity severity() const { return Severity::kError; }

  /// True when the rule wants to look at this file (path scoping).
  virtual bool applicable(const FileScan& file) const = 0;
  virtual void check(const FileScan& file,
                     std::vector<Finding>& out) const = 0;
};

/// Append-only catalog; iteration order is registration order.
class RuleRegistry {
 public:
  static RuleRegistry& instance();

  void add(std::unique_ptr<Rule> rule);
  const std::vector<std::unique_ptr<Rule>>& rules() const { return rules_; }
  /// Lookup by id ("D1") or name ("unordered-iteration"); nullptr when
  /// unknown.
  const Rule* find(std::string_view id_or_name) const;

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Forces registration of the built-in rules (safe to call repeatedly).
void register_builtin_rules();

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

/// Runs each rule applicable to `file`, appending findings.
void run_rules(const FileScan& file, const std::vector<const Rule*>& rules,
               std::vector<Finding>& out);

}  // namespace detlint
