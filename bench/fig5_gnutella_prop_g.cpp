// Figure 5 — Effectiveness of PROP-G in a Gnutella-like environment.
//
// (a) average lookup latency vs time for nhops in {1, 2, 4} and random
//     probing, n = 1000, ts-large;
// (b) varying the system size, n in {300, 500, 1000, 2000}, nhops = 2;
// (c) varying the physical topology: ts-large vs ts-small.
//
// Paper shape: nhops = 1 barely helps; nhops >= 2 and random probing all
// converge to a similar, much lower latency; larger systems improve a
// bit less; ts-large improves more than ts-small.
//
// Every run is an ExperimentSpec through run_sweep, so propsim_sweep
// reproduces each part, e.g. (a) as
//   propsim_sweep configs/fig5_like.conf sweep:nhops=1,2,4
#include <cstdio>

#include "bench_util.h"

namespace propsim::bench {
namespace {

/// Runs the combinations and returns their series, each named by its
/// combination's label.
std::vector<TimeSeries> run_series(const std::vector<SweepCombo>& combos) {
  const std::vector<ExperimentResult> results = run_or_exit(combos);
  std::vector<TimeSeries> series;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const ExperimentResult& r = results[i];
    std::printf("  [%s] exchanges=%llu attempts=%llu\n",
                combos[i].label.c_str(),
                static_cast<unsigned long long>(r.exchanges),
                static_cast<unsigned long long>(r.attempts));
    series.emplace_back(combos[i].label);
    for (const TimeSeries::Point& p : r.series.points()) {
      series.back().record(p.time, p.value);
    }
  }
  return series;
}

int run(const BenchOptions& opts) {
  print_header(
      "Figure 5 — PROP-G on Gnutella (average lookup latency vs time)",
      "nhops=1 barely reduces latency; nhops>=2 ~ random probing, both "
      "strongly reduce it; gains shrink slightly with system size; "
      "ts-large improves more than ts-small");

  // Paper defaults: ts-large, gnutella, PROP-G with nhops = 2.
  const Config base = scaled_config(opts, 1000, 10000);
  const std::size_t n_default = opts.scale_n(1000);
  bool all_hold = true;

  if (opts.part.empty() || opts.part == "a") {
    std::printf("part (a): varying the TTL scale (n=%zu)\n", n_default);
    std::vector<SweepCombo> combos =
        expand_sweep(base, {{"nhops", {"1", "2", "4"}}});
    combos.push_back(expand_sweep(base, {{"random_target", {"true"}}})[0]);
    const std::vector<TimeSeries> series = run_series(combos);
    print_csv_block("fig5a", series_to_csv(series, 16));

    const double drop1 = series[0].first_value() / series[0].last_value();
    const double drop2 = series[1].first_value() / series[1].last_value();
    const double drop4 = series[2].first_value() / series[2].last_value();
    const double dropr = series[3].first_value() / series[3].last_value();
    const bool holds = drop2 > drop1 && drop4 > drop1 && dropr > drop1 &&
                       drop2 > 1.15;
    all_hold = all_hold && holds;
    char detail[256];
    std::snprintf(detail, sizeof(detail),
                  "latency reduction factors: nhops=1 %.2fx, nhops=2 %.2fx, "
                  "nhops=4 %.2fx, random %.2fx",
                  drop1, drop2, drop4, dropr);
    print_verdict(holds, detail);
  }

  if (opts.part.empty() || opts.part == "b") {
    std::printf("part (b): varying the system size (nhops=2)\n");
    std::vector<double> drops;
    // The 4000-peer point puts ~83% of all stub hosts in the overlay —
    // the paper's "almost all physical nodes are chosen" regime — and
    // only runs at full scale.
    SweepAxis sizes{"nodes", {}};
    for (const std::size_t n : {300u, 500u, 1000u, 2000u}) {
      sizes.values.push_back(std::to_string(opts.scale_n(n)));
    }
    if (!opts.quick) sizes.values.push_back("4000");
    const std::vector<TimeSeries> series =
        run_series(expand_sweep(base, {sizes}));
    for (const TimeSeries& s : series) {
      drops.push_back(s.first_value() / s.last_value());
    }
    print_csv_block("fig5b", series_to_csv(series, 16));
    bool holds = true;
    for (const double d : drops) holds = holds && d > 1.15;
    all_hold = all_hold && holds;
    std::string detail = "reduction factors by size:";
    for (const double d : drops) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), " %.2fx", d);
      detail += buf;
    }
    detail += " (all sizes improve; effectiveness varies mildly)";
    print_verdict(holds, detail);
  }

  if (opts.part.empty() || opts.part == "c") {
    std::printf("part (c): varying the physical topology (n=%zu)\n",
                n_default);
    const std::vector<TimeSeries> series = run_series(
        expand_sweep(base, {{"topology", {"ts-large", "ts-small"}}}));
    print_csv_block("fig5c", series_to_csv(series, 16));
    // ts-large's gains come from fixing long transit-crossing links, so
    // the absolute latency reduction is the robust contrast.
    const double cut_large =
        series[0].first_value() - series[0].last_value();
    const double cut_small =
        series[1].first_value() - series[1].last_value();
    const bool holds = cut_large > cut_small && cut_large > 0.0;
    all_hold = all_hold && holds;
    char detail[256];
    std::snprintf(detail, sizeof(detail),
                  "latency cut: ts-large %.0f ms vs ts-small %.0f ms "
                  "(factors %.2fx vs %.2fx)",
                  cut_large, cut_small,
                  series[0].first_value() / series[0].last_value(),
                  series[1].first_value() / series[1].last_value());
    print_verdict(holds, detail);
  }

  return all_hold ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
