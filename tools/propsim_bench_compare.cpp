// propsim_bench_compare — perf-regression gate over two propsim JSON
// artifacts (bench/perf_scaling's BENCH_*.json, propsim.result runs).
//
//   propsim_bench_compare [options] baseline.json candidate.json
//
//   --threshold PCT        default worsening tolerance in percent (25)
//   --metric SUBSTR=PCT    per-metric tolerance override; the first
//                          matching substring wins; a negative PCT makes
//                          matching metrics informational (never gate)
//   --allow-schema-mismatch   compare documents of different schemas
//   --require-metric SUBSTR   fail unless the candidate carries a numeric
//                          path matching SUBSTR; candidate matches the
//                          baseline lacks are warned about (repeatable)
//   --strict-baseline      escalate those warnings to failures, so fresh
//                          bench fields force a baseline refresh; also
//                          fail when the candidate lacks a baseline metric
//   --list                 print every compared metric, not just the bad
//
// Exit codes: 0 = no regression, 1 = regression past threshold or a
// --require-metric violation, 2 = bad invocation / unreadable or
// unparsable input. CI's perf-smoke job runs this against the committed
// bench/baselines/ snapshot; see docs/OBSERVABILITY.md for the
// direction-inference rules.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "obs/bench_compare.h"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--threshold PCT] [--metric SUBSTR=PCT ...]\n"
      "       %*s [--require-metric SUBSTR ...] [--strict-baseline]\n"
      "       %*s [--allow-schema-mismatch] [--list]\n"
      "       %*s baseline.json candidate.json\n"
      "\n"
      "Diffs every numeric metric present in both JSON documents and\n"
      "exits 1 when any directional metric worsened past its tolerance.\n",
      argv0, static_cast<int>(std::string(argv0).size()), "",
      static_cast<int>(std::string(argv0).size()), "",
      static_cast<int>(std::string(argv0).size()), "");
}

bool read_file(const std::string& path, std::string& out,
               std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace propsim;

  obs::CompareOptions options;
  bool list_all = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (arg == "--threshold" && i + 1 < argc) {
      char* end = nullptr;
      options.tolerance_pct = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || options.tolerance_pct < 0.0) {
        std::fprintf(stderr, "--threshold wants a non-negative percent\n");
        return 2;
      }
      continue;
    }
    if (arg == "--metric" && i + 1 < argc) {
      const std::string value = argv[++i];
      const auto eq = value.rfind('=');
      char* end = nullptr;
      const double pct =
          eq == std::string::npos
              ? 0.0
              : std::strtod(value.c_str() + eq + 1, &end);
      if (eq == std::string::npos || eq == 0 || end == nullptr ||
          *end != '\0') {
        std::fprintf(stderr, "--metric wants SUBSTR=PCT, got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.per_metric.emplace_back(value.substr(0, eq), pct);
      continue;
    }
    if (arg == "--require-metric" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value.empty()) {
        std::fprintf(stderr, "--require-metric wants a path substring\n");
        return 2;
      }
      options.require_metrics.push_back(value);
      continue;
    }
    if (arg == "--strict-baseline") {
      options.strict_baseline = true;
      continue;
    }
    if (arg == "--allow-schema-mismatch") {
      options.require_same_schema = false;
      continue;
    }
    if (arg == "--list") {
      list_all = true;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
    files.push_back(arg);
  }
  if (files.size() != 2) {
    usage(argv[0]);
    return 2;
  }

  Json docs[2];
  for (int i = 0; i < 2; ++i) {
    std::string text;
    std::string error;
    if (!read_file(files[static_cast<std::size_t>(i)], text, error)) {
      std::fprintf(stderr, "propsim_bench_compare: %s\n", error.c_str());
      return 2;
    }
    const auto parsed = Json::parse(text, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "propsim_bench_compare: %s: %s\n",
                   files[static_cast<std::size_t>(i)].c_str(), error.c_str());
      return 2;
    }
    docs[i] = *parsed;
  }

  const obs::CompareReport report =
      obs::compare_metrics(docs[0], docs[1], options);
  std::printf("baseline:  %s\ncandidate: %s\n", files[0].c_str(),
              files[1].c_str());
  std::printf("%s", report.render(list_all).c_str());
  if (!report.errors.empty()) return 2;
  return report.ok() ? 0 : 1;
}
