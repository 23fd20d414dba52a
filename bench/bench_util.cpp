#include "bench_util.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/table.h"
#include "workload/host_selection.h"

namespace propsim::bench {

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--part" && i + 1 < argc) {
      opts.part = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      const auto seed = parse_int(argv[++i]);
      if (!seed.has_value() || *seed < 0) {
        std::fprintf(stderr, "--seed wants a non-negative integer, got: %s\n",
                     argv[i]);
        std::exit(2);
      }
      opts.seed = static_cast<std::uint64_t>(*seed);
    } else if (arg == "--help") {
      std::printf("usage: %s [--quick] [--part a|b|c] [--seed N]\n", argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_header(const std::string& experiment, const std::string& claim) {
  std::printf("==================================================\n");
  std::printf("experiment: %s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("==================================================\n");
}

void print_csv_block(const std::string& name, const std::string& csv) {
  std::printf("--- begin csv: %s ---\n%s--- end csv: %s ---\n", name.c_str(),
              csv.c_str(), name.c_str());
}

void print_verdict(bool holds, const std::string& detail) {
  std::printf("verdict: %s — %s\n\n", holds ? "HOLDS" : "DIVERGES",
              detail.c_str());
}

Json hardware_info() {
  Json hw = Json::object();
  hw.set("cores",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    auto begin = line.find_first_not_of(" \t", colon + 1);
    if (begin != std::string::npos) model = line.substr(begin);
    break;
  }
  hw.set("model", model);
  return hw;
}

OverlayNetwork build_unstructured(World& world, std::size_t n, Rng& rng) {
  const auto hosts = select_stub_hosts(world.topo, n, rng);
  GnutellaConfig cfg;  // attach_links = 4 -> delta(G) = 4, as in the paper
  return build_gnutella_overlay(cfg, hosts, world.oracle, rng);
}

Config scaled_config(const BenchOptions& opts, std::size_t nodes,
                     std::size_t queries) {
  const double horizon = opts.scale_t(3600.0);
  Config config;
  config.set("seed", std::to_string(opts.seed));
  config.set("nodes", std::to_string(opts.scale_n(nodes)));
  config.set("horizon", Table::fmt(horizon, 17));
  config.set("sample_interval", Table::fmt(horizon / 15.0, 17));
  config.set("queries", std::to_string(opts.scale_q(queries)));
  return config;
}

SweepCombo labelled_combo(
    const Config& base, std::string label,
    const std::vector<std::pair<std::string, std::string>>& keys) {
  SweepCombo combo{base, std::move(label)};
  for (const auto& [key, value] : keys) combo.config.set(key, value);
  return combo;
}

std::vector<ExperimentResult> run_or_exit(
    const std::vector<SweepCombo>& combos, std::size_t repeat) {
  SweepRuns runs = run_sweep(combos, repeat);
  if (!runs.ok()) {
    std::fprintf(stderr, "%s", runs.errors.c_str());
    std::exit(2);
  }
  return std::move(runs.results);
}

std::string improvement_factor(double before, double after) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fx", before / after);
  return buf;
}

}  // namespace propsim::bench
