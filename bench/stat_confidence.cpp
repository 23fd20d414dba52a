// Statistical confidence for the headline comparison.
//
// Single-seed curves can mislead; this bench replays the core Figure 5
// contrast — PROP-G (nhops=2) vs the weak nhops=1 variant vs LTM vs no
// optimization — across independent seeds in parallel (one deterministic
// simulation per worker) and reports mean +/- sd of the final lookup
// latency, checking that the orderings the paper reports hold with
// separation beyond one standard deviation.
#include <cstdio>
#include <mutex>
#include <vector>

#include "baselines/ltm.h"
#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/prop_engine.h"
#include "sim/scheduler.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

struct Variant {
  std::string label;
  // 0 = none, 1 = prop-g nhops1, 2 = prop-g nhops2, 3 = ltm
  int kind;
};

double run_variant(const Variant& variant, std::uint64_t seed,
                   const BenchOptions& opts) {
  Rng rng(seed);
  World world(TransitStubConfig::ts_large(), rng);
  OverlayNetwork net = build_unstructured(world, opts.scale_n(800), rng);
  Rng qrng(seed + 1);
  const auto queries =
      uniform_queries(net.graph(), opts.scale_q(5000), qrng);

  Scheduler sim;
  std::unique_ptr<PropEngine> prop;
  std::unique_ptr<LtmEngine> ltm;
  if (variant.kind == 1 || variant.kind == 2) {
    PropParams params = paper_prop_params(PropMode::kPropG);
    params.nhops = variant.kind == 1 ? 1 : 2;
    prop = std::make_unique<PropEngine>(net, sim, params, seed + 2);
    prop->start();
  } else if (variant.kind == 3) {
    LtmParams params;
    ltm = std::make_unique<LtmEngine>(net, sim, params, seed + 3);
    ltm->start();
  }
  sim.run_until(opts.scale_t(3600.0));
  return average_unstructured_lookup_latency(net, queries);
}

int run(const BenchOptions& opts) {
  print_header(
      "Statistical confidence — final lookup latency across seeds",
      "PROP-G (nhops=2) beats nhops=1 and no-optimization with >1 sd "
      "separation across independent seeds");

  const std::vector<Variant> variants{{"none", 0},
                                      {"PROP-G nhops=1", 1},
                                      {"PROP-G nhops=2", 2},
                                      {"LTM", 3}};
  const std::size_t seeds = opts.quick ? 3 : 5;

  // results[variant][seed]: every variant runs on the SAME topologies,
  // so comparisons are paired — the per-seed difference cancels the
  // (large) seed-to-seed baseline variation.
  std::vector<std::vector<double>> results(
      variants.size(), std::vector<double>(seeds, 0.0));
  std::mutex mutex;
  ThreadPool pool;
  pool.parallel_for(variants.size() * seeds, [&](std::size_t task) {
    const std::size_t vi = task / seeds;
    const std::size_t si = task % seeds;
    const std::uint64_t seed = opts.seed + si * 7919ULL;
    const double final_ms = run_variant(variants[vi], seed, opts);
    std::lock_guard<std::mutex> lock(mutex);
    results[vi][si] = final_ms;
  });

  Table table({"variant", "final_lookup_ms(mean)", "sd", "min", "max",
               "seeds"});
  std::vector<RunningStats> stats(variants.size());
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    for (const double v : results[vi]) stats[vi].add(v);
    table.add_row({variants[vi].label, Table::fmt(stats[vi].mean(), 5),
                   Table::fmt(stats[vi].stddev(), 3),
                   Table::fmt(stats[vi].min(), 5),
                   Table::fmt(stats[vi].max(), 5), std::to_string(seeds)});
  }
  print_csv_block("stat_confidence", table.to_csv());
  std::printf("%s", table.to_ascii().c_str());

  // Paired comparisons: variant lo beats variant hi when the per-seed
  // difference is positive on every seed and its mean exceeds its sd.
  auto paired_beats = [&](std::size_t lo, std::size_t hi) {
    RunningStats diff;
    bool every_seed = true;
    for (std::size_t si = 0; si < seeds; ++si) {
      const double d = results[hi][si] - results[lo][si];
      diff.add(d);
      every_seed = every_seed && d > 0.0;
    }
    std::printf("paired %s < %s: mean diff %.1f ms (sd %.1f), all seeds "
                "agree: %s\n",
                variants[lo].label.c_str(), variants[hi].label.c_str(),
                diff.mean(), diff.stddev(), every_seed ? "yes" : "no");
    return every_seed && diff.mean() > diff.stddev();
  };
  const bool holds = paired_beats(2, 1) &&  // nhops=2 < nhops=1
                     paired_beats(1, 0) &&  // nhops=1 < none
                     paired_beats(2, 0);    // nhops=2 < none
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "means: none %.0f, nhops=1 %.0f, nhops=2 %.0f, LTM %.0f",
                stats[0].mean(), stats[1].mean(), stats[2].mean(),
                stats[3].mean());
  print_verdict(holds, detail);
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
