// Statistical confidence for the headline comparison.
//
// Single-seed curves can mislead; this bench replays the core Figure 5
// contrast — PROP-G (nhops=2) vs the weak nhops=1 variant vs LTM vs no
// optimization — across independent seeds in parallel (one deterministic
// simulation per worker) and reports mean +/- sd of the final lookup
// latency, checking that the orderings the paper reports hold with
// separation beyond one standard deviation.
//
// The seeds are run_sweep's repeat seeds, so one variant's row is, e.g.,
//   propsim_sweep nodes=800 queries=5000 protocol=prop-g nhops=1 --repeat 5
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"

namespace propsim::bench {
namespace {

int run(const BenchOptions& opts) {
  print_header(
      "Statistical confidence — final lookup latency across seeds",
      "PROP-G (nhops=2) beats nhops=1 and no-optimization with >1 sd "
      "separation across independent seeds");

  Config base = scaled_config(opts, 800, 5000);
  // Only the final sample is read.
  base.set("sample_interval", base.get_string("horizon", ""));
  const std::vector<SweepCombo> variants{
      labelled_combo(base, "none", {{"protocol", "none"}}),
      labelled_combo(base, "PROP-G nhops=1",
                     {{"protocol", "prop-g"}, {"nhops", "1"}}),
      labelled_combo(base, "PROP-G nhops=2",
                     {{"protocol", "prop-g"}, {"nhops", "2"}}),
      labelled_combo(base, "LTM", {{"protocol", "ltm"}})};
  const std::size_t seeds = opts.quick ? 3 : 5;

  // results[variant][seed]: every variant runs on the SAME topologies,
  // so comparisons are paired — the per-seed difference cancels the
  // (large) seed-to-seed baseline variation.
  const std::vector<ExperimentResult> runs = run_or_exit(variants, seeds);
  std::vector<std::vector<double>> results(variants.size());
  for (std::size_t task = 0; task < runs.size(); ++task) {
    results[task / seeds].push_back(runs[task].final_value);
  }

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
