// Figure 6 — Effectiveness of PROP-G in a Chord environment.
//
// Same three sweeps as Figure 5 but on a Chord DHT, with the paper's
// stretch metric (average routed lookup latency over average direct
// physical latency of the same query pairs) sampled over time.
//
// Paper shape: stretch starts around 4-4.5 and falls to ~2.5-3 for
// nhops >= 2 / random probing; nhops = 1 helps least; all system sizes
// improve; ts-large improves more than ts-small.
#include <cstdio>

#include "bench_util.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "metrics/convergence.h"
#include "sim/scheduler.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

struct Scenario {
  std::string label;
  std::size_t n;
  std::size_t nhops;
  bool random_target;
  bool ts_small;
};

TimeSeries run_scenario(const Scenario& sc, const BenchOptions& opts,
                        double horizon_s, double sample_s,
                        MeasureEngine& measure) {
  Rng rng(opts.seed);
  World world(sc.ts_small ? TransitStubConfig::ts_small()
                          : TransitStubConfig::ts_large(),
              rng);
  const auto hosts = select_stub_hosts(world.topo, sc.n, rng);
  const auto ring = ChordRing::build_random(sc.n, ChordConfig{}, rng);
  OverlayNetwork net = make_chord_overlay(ring, hosts, world.oracle);

  Rng qrng(opts.seed ^ 0xda3e39cb94b95bdbULL);
  const auto queries =
      uniform_queries(net.graph(), opts.scale_q(10000), qrng);
  const auto router = chord_router(net, ring);

  Scheduler sim;
  PropParams params{.mode = PropMode::kPropG};
  params.nhops = sc.random_target ? 2 : sc.nhops;
  params.random_target = sc.random_target;
  PropEngine engine(net, sim, params, opts.seed + 11);

  ConvergenceSampler sampler(sim, sc.label, 0.0, horizon_s, sample_s, [&] {
    return measure.stretch(net, queries, router).stretch;
  });
  engine.start();
  sim.run_until(horizon_s);
  std::printf("  [%s] exchanges=%llu attempts=%llu\n", sc.label.c_str(),
              static_cast<unsigned long long>(engine.stats().exchanges),
              static_cast<unsigned long long>(engine.stats().attempts));
  return sampler.take_series();
}

int run(const BenchOptions& opts) {
  print_header("Figure 6 — PROP-G on Chord (lookup stretch vs time)",
               "stretch drops substantially for nhops>=2 and random "
               "probing, least for nhops=1; every system size improves; "
               "ts-large improves more than ts-small");

  const double horizon = opts.scale_t(3600.0);
  const double sample = horizon / 15.0;
  const std::size_t n_default = opts.scale_n(1000);
  bool all_hold = true;
  MeasureEngine measure(MeasureEngine::kAutoThreads);

  if (opts.part.empty() || opts.part == "a") {
    std::printf("part (a): varying the TTL scale (n=%zu)\n", n_default);
    std::vector<TimeSeries> series;
    series.push_back(run_scenario({"nhops=1", n_default, 1, false, false},
                                  opts, horizon, sample, measure));
    series.push_back(run_scenario({"nhops=2", n_default, 2, false, false},
                                  opts, horizon, sample, measure));
    series.push_back(run_scenario({"nhops=4", n_default, 4, false, false},
                                  opts, horizon, sample, measure));
    series.push_back(run_scenario({"random", n_default, 2, true, false},
                                  opts, horizon, sample, measure));
    print_csv_block("fig6a", series_to_csv(series, 16));
    const double drop1 = series[0].first_value() - series[0].last_value();
    const double drop2 = series[1].first_value() - series[1].last_value();
    const double drop4 = series[2].first_value() - series[2].last_value();
    const double dropr = series[3].first_value() - series[3].last_value();
    const bool holds =
        drop2 > drop1 && drop4 > drop1 && dropr > drop1 && drop2 > 0.2;
    all_hold = all_hold && holds;
    char detail[256];
    std::snprintf(detail, sizeof(detail),
                  "stretch cut: nhops=1 %.2f, nhops=2 %.2f, nhops=4 %.2f, "
                  "random %.2f (initial stretch %.2f)",
                  drop1, drop2, drop4, dropr, series[1].first_value());
    print_verdict(holds, detail);
  }

  if (opts.part.empty() || opts.part == "b") {
    std::printf("part (b): varying the system size (nhops=2)\n");
    std::vector<TimeSeries> series;
    std::vector<double> drops;
    // The 4000-peer point puts ~83% of all stub hosts in the overlay —
    // the paper's "almost all physical nodes are chosen" regime — and
    // only runs at full scale.
    std::vector<std::size_t> sizes{opts.scale_n(300), opts.scale_n(500),
                                   opts.scale_n(1000), opts.scale_n(2000)};
    if (!opts.quick) sizes.push_back(4000);
    for (const std::size_t n : sizes) {
      const std::string label = "n=" + std::to_string(n);
      series.push_back(
          run_scenario({label, n, 2, false, false}, opts, horizon, sample,
                       measure));
      drops.push_back(series.back().first_value() -
                      series.back().last_value());
    }
    print_csv_block("fig6b", series_to_csv(series, 16));
    bool holds = true;
    for (const double d : drops) holds = holds && d > 0.15;
    all_hold = all_hold && holds;
    std::string detail = "stretch cuts by size:";
    for (const double d : drops) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), " %.2f", d);
      detail += buf;
    }
    print_verdict(holds, detail);
  }

  if (opts.part.empty() || opts.part == "c") {
    std::printf("part (c): varying the physical topology (n=%zu)\n",
                n_default);
    std::vector<TimeSeries> series;
    series.push_back(run_scenario({"ts-large", n_default, 2, false, false},
                                  opts, horizon, sample, measure));
    series.push_back(run_scenario({"ts-small", n_default, 2, false, true},
                                  opts, horizon, sample, measure));
    print_csv_block("fig6c", series_to_csv(series, 16));
    const double cut_large =
        series[0].first_value() - series[0].last_value();
    const double cut_small =
        series[1].first_value() - series[1].last_value();
    const bool holds = cut_large > cut_small && cut_large > 0.0;
    all_hold = all_hold && holds;
    char detail[256];
    std::snprintf(detail, sizeof(detail),
                  "stretch cut: ts-large %.2f vs ts-small %.2f",
                  cut_large, cut_small);
    print_verdict(holds, detail);
  }

  return all_hold ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
