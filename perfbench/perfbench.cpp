// End-to-end benchmark driver for propsim.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Run from the repository root: workloads are defined in
// perfbench/workloads.json and may name a config under configs/.
//
// --trace 0 runs the workload through the public path a propsim_cli user
// takes (ExperimentSpec::from_config -> run_experiment ->
// experiment_result_json(...).dump()) back to back for --seconds, with a
// few world builds between runs, and reports the medians of
//   wall_s       one run_experiment plus result serialization,
//   setup_s      one world build (topology, oracle, host draw, overlay),
//   peak_rss_mb  the process's peak resident set.
// Both times are scaled by a host-speed probe timed around each stretch
// (host_probe.h), so a co-tenant slowing the host does not read as a
// regression; the unscaled samples are printed beside them.
// --trace 1 alternates untraced runs with the benchmark-owned traced
// assembly (traced_run.h) and reports the per-layer medians instead.
//
// Every run is checked: the overlay must end connected with the expected
// population and the metric must not get worse over the run; repeated
// runs must agree byte for byte; the traced replica must reproduce the
// untraced result byte for byte; and before measuring, the workload at
// its recorded seed must reproduce the digest committed in
// workloads.json. A failed check counts as a failed operation.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Earlier lines stamp the host and build and summarise the samples.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/result_json.h"
#include "bench_util.h"
#include "common/config.h"
#include "common/json.h"
#include "obs/event_bus.h"
#include "host_probe.h"
#include "traced_run.h"

namespace propsim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kWorkloadsPath = "perfbench/workloads.json";
/// World builds timed per measured run: spreads the short setup samples
/// over the whole measurement window instead of one burst.
constexpr int kSetupBuildsPerRun = 8;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double quantile(const std::vector<float>& v, double q) {
  return quantile(std::vector<double>(v.begin(), v.end()), q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string summary(const char* name, const std::vector<double>& v) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g",
                name, v.size(), median(v), quantile(v, 0.25),
                quantile(v, 0.75), *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()));
  return buf;
}

/// The result with its wall-clock fields removed: what must repeat
/// exactly across runs, seeds aside.
Json strip_wall_clock(const Json& j) {
  if (j.is_object()) {
    Json out = Json::object();
    for (const auto& [key, value] : j.object_items()) {
      if (key != "wall_ms") out.set(key, strip_wall_clock(value));
    }
    return out;
  }
  if (j.is_array()) {
    Json out = Json::array();
    for (const Json& item : j.array_items()) {
      out.push_back(strip_wall_clock(item));
    }
    return out;
  }
  return j;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1>");
    }
    flags[flag.substr(2)] = argv[++i];
  }
  Args args;
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!flags.contains(required)) die(std::string("missing --") + required);
  }
  args.workload = flags["workload"];
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  if (!(args.seconds > 0.0)) die("--seconds must be positive");
  if (flags["trace"] != "0" && flags["trace"] != "1") {
    die("--trace takes 0 or 1");
  }
  args.trace = flags["trace"] == "1";
  return args;
}

Json load_workloads() {
  std::ifstream in(kWorkloadsPath);
  if (!in) die(std::string("cannot read ") + kWorkloadsPath);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  std::optional<Json> doc = Json::parse(text.str(), &error);
  if (!doc) die(std::string(kWorkloadsPath) + ": " + error);
  return *doc;
}

const Json& find_workload(const Json& doc, const std::string& name) {
  const Json* list = doc.find("workloads");
  if (list == nullptr || !list->is_array()) die("workloads.json: no list");
  for (const Json& w : list->array_items()) {
    if (const Json* n = w.find("name"); n && n->as_string() == name) return w;
  }
  die("unknown workload '" + name + "'");
}

/// The workload's config file (if any), then its keys, then the seed.
ExperimentSpec make_spec(const Json& workload, std::uint64_t seed) {
  Config config;
  if (const Json* file = workload.find("config_file"); file && !file->is_null()) {
    config = Config::load_file(file->as_string());
  }
  if (const Json* keys = workload.find("keys")) {
    for (const auto& [key, value] : keys->object_items()) {
      config.set(key, value.as_string());
    }
  }
  config.set("seed", std::to_string(seed));
  const SpecResult parsed = ExperimentSpec::from_config(config);
  if (!parsed.ok()) die(parsed.error_report());
  return parsed.spec();
}

struct Run {
  ExperimentResult result;
  std::string canonical;  // stripped result JSON
  double wall_s = 0.0;
};

/// One run down the untraced public path, timed through serialization.
Run run_once(const ExperimentSpec& spec) {
  Run run;
  const auto t0 = Clock::now();
  run.result = run_experiment(spec);
  const Json json = experiment_result_json(spec, run.result);
  const std::string text = json.dump();
  run.wall_s = since(t0);
  if (text.empty()) die("empty result JSON");
  run.canonical = strip_wall_clock(json).dump();
  return run;
}

/// Empty when the run's outputs are plausible for its spec.
std::string check_result(const ExperimentSpec& spec,
                         const ExperimentResult& r) {
  if (!r.connected) return "overlay ended disconnected";
  // Without churn, only injected crashes remove peers.
  const std::size_t expected = spec.nodes - r.fault_crashes;
  if (r.final_population != expected) {
    return "population " + std::to_string(r.final_population) +
           ", expected " + std::to_string(expected);
  }
  if (!(r.final_value <= r.initial_value)) {
    return "metric rose from " + std::to_string(r.initial_value) + " to " +
           std::to_string(r.final_value);
  }
  return {};
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::printf("FAILED %s: %s\n", what.c_str(), error.c_str());
  }
};

/// The workload at its recorded seed must reproduce the committed
/// digest; this run also warms the allocator and caches.
void check_recorded_digest(const Json& doc, const Json& workload,
                           Tally& tally) {
  const auto recorded_seed =
      static_cast<std::uint64_t>(doc.find("recorded_seed")->as_double());
  const ExperimentSpec spec = make_spec(workload, recorded_seed);
  const Run run = run_once(spec);
  const std::string digest = fnv1a_hex(run.canonical);
  const Json* expected = workload.find("digest");
  std::string error = check_result(spec, run.result);
  if (error.empty() && (expected == nullptr || expected->as_string() != digest)) {
    error = "result digest " + digest + " differs from the committed " +
            (expected ? expected->as_string() : std::string("(none)"));
  }
  tally.record("recorded-seed digest", error);
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value).set("unit", unit);
  return m;
}

/// Paces a measurement loop to the run's time budget: another iteration
/// starts only if one as long as the previous still ends within it. The
/// first iteration always runs.
class Pacer {
 public:
  explicit Pacer(double seconds) : seconds_(seconds) {}

  bool next() {
    const auto now = Clock::now();
    const bool first = iterations_++ == 0;
    if (!first) {
      last_s_ = std::chrono::duration<double>(now - iteration_start_).count();
    }
    iteration_start_ = now;
    return first || since(start_) + last_s_ <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point iteration_start_ = start_;
  double last_s_ = 0.0;
  std::uint64_t iterations_ = 0;
};

Json measure_end_to_end(const ExperimentSpec& spec, double seconds,
                        Tally& tally) {
  std::vector<double> wall, setup;                // as measured
  std::vector<double> scaled_wall, scaled_setup;  // contention-scaled
  std::string first;
  // Host probes bracket every timed stretch; the stretch is scaled by
  // kProbeReferenceS over the mean of the two probes (host_probe.h).
  double probe = host_probe_s();
  const auto stretch_scale = [&probe] {
    const double before = probe;
    probe = host_probe_s();
    return kProbeReferenceS / (0.5 * (before + probe));
  };
  for (Pacer pacer(seconds); pacer.next();) {
    std::vector<double> builds;
    for (int i = 0; i < kSetupBuildsPerRun; ++i) {
      builds.push_back(time_world_build(spec));
    }
    const double setup_scale = stretch_scale();
    for (const double b : builds) {
      setup.push_back(b);
      scaled_setup.push_back(b * setup_scale);
    }
    const Run run = run_once(spec);
    wall.push_back(run.wall_s);
    scaled_wall.push_back(run.wall_s * stretch_scale());
    std::string error = check_result(spec, run.result);
    if (first.empty()) first = run.canonical;
    if (error.empty() && run.canonical != first) {
      error = "result differs from the first run at the same seed";
    }
    tally.record("run " + std::to_string(wall.size()), error);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::printf("%s\n%s\n%s\n%s\npeak_rss_mb: %.3f\n",
              summary("wall_s", scaled_wall).c_str(),
              summary("setup_s", scaled_setup).c_str(),
              summary("unscaled wall_s", wall).c_str(),
              summary("unscaled setup_s", setup).c_str(), peak_rss_mb);

  Json metrics = Json::object();
  metrics.set("wall_s", metric(median(scaled_wall), "s"))
      .set("setup_s", metric(median(scaled_setup), "s"))
      .set("peak_rss_mb", metric(peak_rss_mb, "MB"));
  return metrics;
}

/// Median over traced runs of one LayerProfile field.
template <typename Fn>
double median_over(const std::vector<LayerProfile>& profiles, Fn field) {
  std::vector<double> v;
  for (const LayerProfile& p : profiles) v.push_back(field(p));
  return median(v);
}

Json measure_layers(const ExperimentSpec& spec, double seconds,
                    Tally& tally) {
  if (const std::string why = traced_run_unsupported(spec); !why.empty()) {
    die("the traced assembly does not cover " + why);
  }
  std::vector<LayerProfile> profiles;
  std::vector<double> untraced_wall;
  for (Pacer pacer(seconds); pacer.next();) {
    // Alternate which side runs first so neither always runs warm.
    std::optional<Run> untraced;
    if (profiles.size() % 2 == 0) untraced = run_once(spec);
    TracedOutcome traced = traced_run(spec);
    if (!untraced) untraced = run_once(spec);
    untraced_wall.push_back(untraced->wall_s);

    std::string error = check_result(spec, untraced->result);
    if (error.empty() &&
        strip_wall_clock(traced.result).dump() != untraced->canonical) {
      error = "traced assembly result differs from run_experiment";
    }
    tally.record("traced pair " + std::to_string(profiles.size() + 1), error);
    profiles.push_back(std::move(traced.layers));
  }
  const LayerProfile& last = profiles.back();
  const auto med = [&](double LayerProfile::*field) {
    return median_over(profiles,
                       [field](const LayerProfile& p) { return p.*field; });
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double traced_wall = med(&LayerProfile::wall_s);
  const double untraced = median(untraced_wall);

  Json metrics = Json::object();
  const auto add = [&](const char* name, double value, const char* unit) {
    metrics.set(name, metric(value, unit));
  };
  add("topology.build_s", med(&LayerProfile::topology_build_s), "s");
  add("topology.oracle_build_s", med(&LayerProfile::oracle_build_s), "s");
  add("overlay.build_s", med(&LayerProfile::overlay_build_s), "s");
  add("overlay.lookup_s", med(&LayerProfile::lookup_s), "s");
  add("overlay.lookups", count(last.lookup_us.size()), "count");
  add("overlay.lookup_us_p50",
      median_over(profiles,
                  [](const LayerProfile& p) { return quantile(p.lookup_us, 0.5); }),
      "us");
  add("overlay.lookup_us_p99",
      median_over(profiles,
                  [](const LayerProfile& p) { return quantile(p.lookup_us, 0.99); }),
      "us");
  add("measure.snapshot_s", med(&LayerProfile::snapshot_s), "s");
  const std::uint64_t snapshots = last.snapshot_captures + last.snapshot_reuses;
  add("measure.snapshot_reuse_ratio",
      snapshots == 0 ? 0.0
                     : count(last.snapshot_reuses) / count(snapshots),
      "ratio");
  add("measure.kernel_s", med(&LayerProfile::kernel_s), "s");
  add("measure.floods", count(last.floods), "count");
  add("core.event_s", med(&LayerProfile::event_s), "s");
  add("core.event_us_p50",
      median_over(profiles,
                  [](const LayerProfile& p) { return quantile(p.event_us, 0.5); }),
      "us");
  add("core.event_us_p99",
      median_over(profiles,
                  [](const LayerProfile& p) { return quantile(p.event_us, 0.99); }),
      "us");
  add("core.attempts", count(last.attempts), "count");
  add("core.exchange_ratio",
      last.attempts == 0 ? 0.0 : count(last.exchanges) / count(last.attempts),
      "ratio");
  add("core.control_messages", count(last.control_messages), "count");
  add("faults.retries", count(last.retries), "count");
  add("faults.timeouts", count(last.timeouts), "count");
  add("faults.losses", count(last.losses), "count");
  add("sim.events_executed", count(last.events_executed), "count");
  add("sim.events_scheduled", count(last.events_scheduled), "count");
  add("sim.events_cancelled", count(last.events_cancelled), "count");
  add("sim.pending_peak", count(last.pending_peak), "count");
  add("app.output_s", med(&LayerProfile::output_s), "s");
  add("trace.overhead_s", traced_wall - untraced, "s");

  // Layer-share table: each span's median as a share of traced wall.
  std::printf("layer shares (median of %zu traced runs; traced wall %.4f s, "
              "untraced wall_s %.4f s)\n",
              profiles.size(), traced_wall, untraced);
  double covered = 0.0;
  for (const char* span :
       {"topology.build_s", "topology.oracle_build_s", "overlay.build_s",
        "overlay.lookup_s", "measure.snapshot_s", "measure.kernel_s",
        "core.event_s", "app.output_s"}) {
    const double s = metrics.find(span)->find("value")->as_double();
    covered += s;
    std::printf("  %-24s %10.4f s %7.2f%%\n", span, s,
                100.0 * s / traced_wall);
  }
  std::printf("  %-24s %10.4f s %7.2f%%\n", "covered by spans", covered,
              100.0 * covered / traced_wall);
  return metrics;
}

}  // namespace
}  // namespace propsim::perfbench

int main(int argc, char** argv) {
  using namespace propsim;
  using namespace propsim::perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Args args = parse_args(argc, argv);
  const Json doc = load_workloads();
  const Json& workload = find_workload(doc, args.workload);
  const ExperimentSpec spec = make_spec(workload, args.seed);

  Json stamp = Json::object();
  stamp.set("host", bench::hardware_info())
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("propsim_trace", obs::trace_compiled_in() ? "ON" : "OFF")
      .set("workload", args.workload)
      .set("seed", args.seed)
      .set("seconds", args.seconds)
      .set("trace", args.trace);
  std::printf("stamp: %s\n", stamp.dump().c_str());

  Tally tally;
  check_recorded_digest(doc, workload, tally);
  Json metrics = args.trace ? measure_layers(spec, args.seconds, tally)
                            : measure_end_to_end(spec, args.seconds, tally);

  Json out = Json::object();
  out.set("correct", tally.failed == 0)
      .set("attempted", tally.attempted)
      .set("failed", tally.failed)
      .set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
