// Perf-regression comparison between two propsim JSON artifacts.
//
// Understands any numeric document the tools emit — `propsim.bench.*`
// files (bench/perf_scaling's BENCH_oracle.json), `propsim.result` runs,
// `propsim.sweep` grids — by flattening both to dotted-path -> number
// maps and comparing paths present in both. Each metric gets a
// direction inferred from its name (qps up is good, wall_ms up is bad,
// unnamed metrics are informational) and a worsening tolerance in
// percent; any metric that worsens past its tolerance is a regression.
// tools/propsim_bench_compare is the CLI over this; CI's perf gates run
// it against the committed bench/baselines/ snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace propsim::obs {

enum class MetricDirection {
  kHigherIsBetter,   // throughputs, speedups, improvements
  kLowerIsBetter,    // times, memory, message counts
  kInformational,    // compared and reported, never gates
};

const char* to_string(MetricDirection d);

/// Direction of one flattened metric path, by name convention (the
/// whole dotted path is searched, case-sensitively; schemas emit
/// lowercase). See docs/OBSERVABILITY.md for the token table.
MetricDirection metric_direction(const std::string& path);

/// Flattens every number reachable from `value` into `out` as
/// "a.b.3.c" -> number (array indices become path segments). Booleans,
/// strings and nulls are skipped.
void flatten_numeric(const Json& value, const std::string& prefix,
                     std::map<std::string, double>& out);

struct CompareOptions {
  /// Worsening tolerance (percent) for every directional metric without
  /// an override. 25 means "fail when a metric is >25% worse".
  double tolerance_pct = 25.0;
  /// (path substring, tolerance) overrides; the first matching entry
  /// wins. A negative tolerance makes matching metrics informational.
  std::vector<std::pair<std::string, double>> per_metric;
  /// Require both documents to carry the same "schema" and "version".
  bool require_same_schema = true;
  /// Path substrings that must match at least one numeric metric in the
  /// candidate; a metric the candidate lost entirely fails the gate.
  /// Candidate matches with no baseline counterpart are warned about
  /// (the gate cannot compare them) — or fail, under strict_baseline.
  std::vector<std::string> require_metrics;
  /// Escalates two notes to failures: "required metric present in
  /// candidate but missing from baseline", so a fresh bench field cannot
  /// silently bypass the gate until the baseline is regenerated, and
  /// "baseline metric absent from candidate", so the candidate's schema
  /// cannot silently shrink.
  bool strict_baseline = false;
};

struct MetricDelta {
  std::string path;
  double baseline = 0.0;
  double candidate = 0.0;
  /// How much worse the candidate is, in percent of baseline, along the
  /// metric's direction (negative = improved). 0 for informational.
  double worsening_pct = 0.0;
  MetricDirection direction = MetricDirection::kInformational;
  double tolerance_pct = 0.0;
  bool regression = false;
};

struct CompareReport {
  std::vector<MetricDelta> deltas;  // every path present in both docs
  std::vector<std::string> notes;   // skipped/missing-metric diagnostics
  std::vector<std::string> errors;  // schema mismatch etc. => not ok
  /// --require-metric violations: needles the candidate does not carry,
  /// plus (under strict_baseline) candidate matches the baseline lacks
  /// and baseline metrics the candidate lacks.
  /// Gate failures like regressions, not invocation errors.
  std::vector<std::string> required_failures;
  std::size_t regressions() const;
  bool ok() const {
    return errors.empty() && regressions() == 0 &&
           required_failures.empty();
  }
  /// Human-readable multi-line report (regressions first).
  std::string render(bool list_all = false) const;
};

CompareReport compare_metrics(const Json& baseline, const Json& candidate,
                              const CompareOptions& options);

}  // namespace propsim::obs
