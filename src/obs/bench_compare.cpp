#include "obs/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace propsim::obs {
namespace {

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Fields that are identity/configuration, not performance: comparing
/// them as metrics would flag e.g. a seed change as a "regression".
bool is_identity_field(const std::string& path) {
  for (const char* token :
       {"seed", "version", "nodes", "queries", "domains", "quick",
        "horizon", "sample_interval", "boundary"}) {
    if (contains(path, token)) return true;
  }
  return false;
}

}  // namespace

const char* to_string(MetricDirection d) {
  switch (d) {
    case MetricDirection::kHigherIsBetter: return "higher-is-better";
    case MetricDirection::kLowerIsBetter: return "lower-is-better";
    case MetricDirection::kInformational: return "informational";
  }
  return "?";
}

MetricDirection metric_direction(const std::string& path) {
  if (is_identity_field(path)) return MetricDirection::kInformational;
  // Lower-is-better tokens first: "hierarchical_wall_ms" must not match
  // some future higher-better token by accident, and times/memory are
  // the overwhelmingly common gate metrics.
  for (const char* token : {"wall_ms", "build_ms", "rss", "latency",
                            "stretch", "messages", "conflicts",
                            "unreachable", "metric.final", "p50", "p95"}) {
    if (contains(path, token)) return MetricDirection::kLowerIsBetter;
  }
  if (ends_with(path, "_ms") || ends_with(path, "_mb")) {
    return MetricDirection::kLowerIsBetter;
  }
  for (const char* token :
       {"qps", "speedup", "improvement", "throughput"}) {
    if (contains(path, token)) return MetricDirection::kHigherIsBetter;
  }
  return MetricDirection::kInformational;
}

void flatten_numeric(const Json& value, const std::string& prefix,
                     std::map<std::string, double>& out) {
  if (value.is_number()) {
    out[prefix] = value.as_double();
    return;
  }
  if (value.is_object()) {
    for (const auto& [key, child] : value.object_items()) {
      flatten_numeric(child, prefix.empty() ? key : prefix + "." + key, out);
    }
    return;
  }
  if (value.is_array()) {
    std::size_t index = 0;
    for (const Json& child : value.array_items()) {
      flatten_numeric(child, prefix + "." + std::to_string(index), out);
      ++index;
    }
  }
}

std::size_t CompareReport::regressions() const {
  return static_cast<std::size_t>(
      std::count_if(deltas.begin(), deltas.end(),
                    [](const MetricDelta& d) { return d.regression; }));
}

std::string CompareReport::render(bool list_all) const {
  std::string out;
  char line[512];
  for (const std::string& e : errors) out += "error: " + e + "\n";
  for (const MetricDelta& d : deltas) {
    if (!d.regression && !list_all) continue;
    std::snprintf(line, sizeof(line),
                  "%s %s: %.6g -> %.6g (%+.1f%% worse, tolerance %.1f%%, "
                  "%s)\n",
                  d.regression ? "REGRESSION" : "ok        ", d.path.c_str(),
                  d.baseline, d.candidate, d.worsening_pct, d.tolerance_pct,
                  to_string(d.direction));
    out += line;
  }
  for (const std::string& r : required_failures) {
    out += "REQUIRED   " + r + "\n";
  }
  for (const std::string& n : notes) out += "note: " + n + "\n";
  std::snprintf(line, sizeof(line),
                "%zu metric(s) compared, %zu regression(s)\n", deltas.size(),
                regressions());
  out += line;
  return out;
}

CompareReport compare_metrics(const Json& baseline, const Json& candidate,
                              const CompareOptions& options) {
  CompareReport report;

  if (options.require_same_schema) {
    const Json* bs = baseline.find("schema");
    const Json* cs = candidate.find("schema");
    if (bs == nullptr || cs == nullptr || !bs->is_string() ||
        !cs->is_string() || bs->as_string() != cs->as_string()) {
      report.errors.push_back(
          "schema mismatch (pass --allow-schema-mismatch to compare "
          "anyway)");
      return report;
    }
  }

  std::map<std::string, double> base_metrics;
  std::map<std::string, double> cand_metrics;
  flatten_numeric(baseline, "", base_metrics);
  flatten_numeric(candidate, "", cand_metrics);

  std::vector<std::string> missing;
  for (const auto& [path, base_value] : base_metrics) {
    const auto it = cand_metrics.find(path);
    if (it == cand_metrics.end()) {
      missing.push_back(path);
      continue;
    }
    MetricDelta d;
    d.path = path;
    d.baseline = base_value;
    d.candidate = it->second;
    d.direction = metric_direction(path);
    d.tolerance_pct = options.tolerance_pct;
    for (const auto& [needle, tolerance] : options.per_metric) {
      if (contains(path, needle.c_str())) {
        if (tolerance < 0.0) {
          d.direction = MetricDirection::kInformational;
        } else {
          d.tolerance_pct = tolerance;
        }
        break;
      }
    }
    if (d.direction != MetricDirection::kInformational) {
      if (d.baseline > 0.0) {
        const double delta_pct =
            100.0 * (d.candidate - d.baseline) / d.baseline;
        d.worsening_pct = d.direction == MetricDirection::kLowerIsBetter
                              ? delta_pct
                              : -delta_pct;
        d.regression = d.worsening_pct > d.tolerance_pct;
      } else if (d.baseline == 0.0 &&
                 d.direction == MetricDirection::kLowerIsBetter &&
                 d.candidate > 1e-9) {
        // A cost that was zero and no longer is: infinite worsening.
        d.worsening_pct = std::numeric_limits<double>::infinity();
        d.regression = true;
      } else {
        report.notes.push_back("non-positive baseline for " + path +
                               "; compared informationally");
        d.direction = MetricDirection::kInformational;
      }
    }
    report.deltas.push_back(std::move(d));
  }
  if (!missing.empty()) {
    const std::string what = std::to_string(missing.size()) +
                             " baseline metric(s) absent from candidate";
    if (options.strict_baseline) {
      // The candidate's schema shrank: name every path it lost.
      std::string paths;
      for (const std::string& path : missing) {
        paths += (paths.empty() ? "" : ", ") + path;
      }
      report.required_failures.push_back(what + ": " + paths +
                                         " (regenerate the baseline)");
    } else {
      report.notes.push_back(what);
    }
  }
  std::size_t fresh = 0;
  for (const auto& [path, value] : cand_metrics) {
    if (base_metrics.find(path) == base_metrics.end()) ++fresh;
  }
  if (fresh > 0) {
    report.notes.push_back(std::to_string(fresh) +
                           " candidate metric(s) absent from baseline");
  }

  // --require-metric: each needle must match a numeric path the
  // candidate actually carries, and the gate only covers what the
  // baseline carries too — so a candidate-only match is worth a warning
  // (a failure under strict_baseline: regenerate the baseline).
  for (const std::string& needle : options.require_metrics) {
    bool in_candidate = false;
    for (const auto& [path, value] : cand_metrics) {
      if (!contains(path, needle.c_str())) continue;
      in_candidate = true;
      if (base_metrics.find(path) != base_metrics.end()) continue;
      const std::string what = "required metric '" + needle +
                               "' matches candidate path '" + path +
                               "' that is missing from the baseline";
      if (options.strict_baseline) {
        report.required_failures.push_back(
            what + " (regenerate the baseline)");
      } else {
        report.notes.push_back(what + " (not gated; pass "
                               "--strict-baseline to fail instead)");
      }
    }
    if (!in_candidate) {
      report.required_failures.push_back(
          "required metric '" + needle +
          "' matches no numeric path in the candidate");
    }
  }
  return report;
}

}  // namespace propsim::obs
