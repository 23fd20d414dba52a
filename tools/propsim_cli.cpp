// propsim_cli — run a config-driven overlay-optimization experiment.
//
//   propsim_cli [--format csv|json] experiment.conf [key=value ...]
//   propsim_cli key=value [key=value ...]
//
// `--help` lists every config key (src/app/spec_keys.cpp); command-line
// key=value pairs override file values. The default output is a human
// summary plus the metric time series as CSV; `--format json` emits the
// full result under the stable `propsim.result` schema
// (src/app/result_json.h); `trace=<path>` also streams every trace event
// to <path> as propsim.trace v1 JSONL. Bad configs, unreadable config
// files and malformed lines are reported with exit code 2.
//
// Example:
//   propsim_cli overlay=chord protocol=prop-g nodes=500 horizon=1800
#include <cstdio>
#include <cstring>
#include <string>

#include "app/experiment.h"
#include "app/result_json.h"
#include "app/spec_keys.h"
#include "common/timeseries.h"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--format csv|json] [config-file] [key=value ...]\n"
      "\n"
      "  trace=<path>  stream propsim.trace v1 JSONL events to <path>\n"
      "\n"
      "config keys:\n",
      argv0);
  for (const propsim::SpecKey& key : propsim::spec_keys()) {
    std::printf("  %-28s %s%s%s\n      %s\n", key.name, key.accepts().c_str(),
                key.default_value ? "  default " : "",
                key.default_value ? key.default_value : "", key.doc);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace propsim;

  Config config;
  bool json_output = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (arg == "--format" && i + 1 < argc) {
      const std::string format = argv[++i];
      if (format == "json") {
        json_output = true;
      } else if (format == "csv") {
        json_output = false;
      } else {
        std::fprintf(stderr, "unknown --format '%s' (csv | json)\n",
                     format.c_str());
        return 2;
      }
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      config.set(arg.substr(0, eq), arg.substr(eq + 1));
    } else {
      // A config file; later files/overrides win.
      std::string error;
      const auto file = Config::try_load_file(arg, error);
      if (!file) {
        std::fprintf(stderr, "propsim_cli: %s\n", error.c_str());
        return 2;
      }
      for (const auto& [key, value] : file->values()) config.set(key, value);
    }
  }

  const SpecResult parsed = ExperimentSpec::from_config(config);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s", parsed.error_report().c_str());
    std::fprintf(stderr, "propsim_cli: %zu config error(s); see --help\n",
                 parsed.errors.size());
    return 2;
  }
  const ExperimentSpec& spec = parsed.spec();

  if (json_output) {
    const ExperimentResult result = run_experiment(spec);
    std::printf("%s\n", experiment_result_json(spec, result).dump(2).c_str());
    return result.connected ? 0 : 1;
  }
  std::printf("propsim experiment: overlay=%s protocol=%s nodes=%zu "
              "horizon=%.0fs seed=%llu\n",
              to_string(spec.overlay), to_string(spec.protocol), spec.nodes,
              spec.horizon_s,
              static_cast<unsigned long long>(spec.seed));

  const ExperimentResult result = run_experiment(spec);

  std::printf("\n%s over time:\n", result.metric_name.c_str());
  std::printf("%s", series_to_csv({result.series}, 16).c_str());
  std::printf("\nsummary:\n");
  std::printf("  %s: %.4g -> %.4g (%.2fx)\n", result.metric_name.c_str(),
              result.initial_value, result.final_value,
              result.initial_value / result.final_value);
  if (result.attempts > 0) {
    std::printf("  prop: %llu exchanges / %llu attempts\n",
                static_cast<unsigned long long>(result.exchanges),
                static_cast<unsigned long long>(result.attempts));
  }
  if (result.ltm_rounds > 0) {
    std::printf("  ltm rounds: %llu\n",
                static_cast<unsigned long long>(result.ltm_rounds));
  }
  std::printf("  control messages: %llu\n",
              static_cast<unsigned long long>(result.control_messages));
  if (result.churn_joins + result.churn_leaves + result.churn_failures > 0) {
    std::printf("  churn: %llu joins, %llu leaves, %llu failures\n",
                static_cast<unsigned long long>(result.churn_joins),
                static_cast<unsigned long long>(result.churn_leaves),
                static_cast<unsigned long long>(result.churn_failures));
  }
  if (result.lookups_issued > 0) {
    std::printf("  traffic: %llu lookups (%llu unreachable), "
                "experienced p50 %.0f ms / p95 %.0f ms\n",
                static_cast<unsigned long long>(result.lookups_issued),
                static_cast<unsigned long long>(result.lookups_unreachable),
                result.observed_p50_ms, result.observed_p95_ms);
  }
  if (result.commit_conflicts > 0) {
    std::printf("  commit conflicts: %llu\n",
                static_cast<unsigned long long>(result.commit_conflicts));
  }
  if (result.fault_messages > 0) {
    std::printf("  faults: %llu/%llu messages lost (%llu at partitions), "
                "%llu crashes, %llu timeouts, %llu retries, "
                "%llu aborted mid-commit\n",
                static_cast<unsigned long long>(result.fault_losses +
                                                result.fault_partition_drops),
                static_cast<unsigned long long>(result.fault_messages),
                static_cast<unsigned long long>(result.fault_partition_drops),
                static_cast<unsigned long long>(result.fault_crashes),
                static_cast<unsigned long long>(result.timeouts),
                static_cast<unsigned long long>(result.retries),
                static_cast<unsigned long long>(result.aborted_mid_commit));
  }
  if (result.trace.events > 0) {
    std::printf("  trace: %llu events (%llu warm-up / %llu maintenance)\n",
                static_cast<unsigned long long>(result.trace.events),
                static_cast<unsigned long long>(
                    result.trace.events_by_phase[0]),
                static_cast<unsigned long long>(
                    result.trace.events_by_phase[1]));
    if (!result.trace.sink_path.empty()) {
      std::printf("  trace file: %s (%llu events)\n",
                  result.trace.sink_path.c_str(),
                  static_cast<unsigned long long>(result.trace.sink_events));
    }
  }
  std::printf("  population: %zu peers, overlay %s\n",
              result.final_population,
              result.connected ? "connected" : "PARTITIONED");
  return result.connected ? 0 : 1;
}
