// Figure 7 — PROP-O under node heterogeneity.
//
// Bimodal processing delays (fast hubs vs slow peers, capability
// correlated with degree), Gnutella-like overlay. The x-axis sweeps the
// fraction of lookups whose destination is a fast node; series are
// PROP-O with m in {1, 2, 4}, PROP-G and LTM. Values are normalized to
// the unoptimized overlay's latency on the same workload.
//
// Paper shape: with mostly slow-destined lookups LTM routes best; as
// fast-destined lookups dominate, LTM's and PROP-G's (normalized) delay
// degrades while PROP-O keeps improving, because only PROP-O preserves
// the fast hubs' connection counts.
//
// Every run is an ExperimentSpec through run_sweep; one policy's column
// is, e.g.,
//   propsim_sweep protocol=prop-g heterogeneity=bimodal-degree
//     sweep:fraction_fast_dest=0,0.2,0.4,0.6,0.8,1
// with each row's final over initial latency.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"

namespace propsim::bench {
namespace {

int run(const BenchOptions& opts) {
  print_header(
      "Figure 7 — normalized lookup delay under bimodal heterogeneity",
      "as the fraction of fast-destined lookups grows, PROP-O's delay "
      "keeps falling while LTM (and PROP-G) lose their edge; PROP-O with "
      "larger m does better");

  // Bimodal delays (20% fast at 10 ms vs slow at 100 ms, DESIGN.md) tied
  // to the initial hub structure. Each run's t = 0 sample measures the
  // unoptimized overlay on the same workload, so final / initial is its
  // normalized delay.
  Config base = scaled_config(opts, 1000, 10000);
  base.set("heterogeneity", "bimodal-degree");
  // Only the t = 0 and horizon samples are read.
  base.set("sample_interval", base.get_string("horizon", ""));
  std::vector<SweepCombo> policies;
  for (const std::string m : {"1", "2", "4"}) {
    policies.push_back(labelled_combo(base, "PROP-O(m=" + m + ")",
                                      {{"protocol", "prop-o"}, {"m", m}}));
  }
  policies.push_back(labelled_combo(base, "PROP-G", {{"protocol", "prop-g"}}));
  policies.push_back(labelled_combo(base, "LTM", {{"protocol", "ltm"}}));

  const std::vector<double> fractions{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  SweepAxis fraction_axis{"fraction_fast_dest", {}};
  for (const double f : fractions) {
    fraction_axis.values.push_back(Table::fmt(f, 3));
  }

  std::vector<SweepCombo> combos;
  for (const SweepCombo& p : policies) {
    for (SweepCombo& c : expand_sweep(p.config, {fraction_axis})) {
      combos.push_back(std::move(c));
    }
  }
  const std::vector<ExperimentResult> results = run_or_exit(combos);

  Table table([&] {
    std::vector<std::string> header{"fraction_fast_lookup"};
    for (const SweepCombo& p : policies) header.push_back(p.label);
    return header;
  }());
  std::vector<std::vector<double>> normalized(policies.size());
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      const ExperimentResult& r = results[pi * fractions.size() + fi];
      normalized[pi].push_back(r.final_value / r.initial_value);
    }
  }

  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    std::vector<std::string> row{Table::fmt(fractions[fi], 3)};
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      row.push_back(Table::fmt(normalized[pi][fi], 4));
    }
    table.add_row(std::move(row));
  }
  print_csv_block("fig7", table.to_csv());
  std::printf("%s", table.to_ascii().c_str());

  // Shape checks mirroring the paper's reading of Figure 7:
  //  (1) at the fast-dominated end PROP-O beats both LTM and PROP-G;
  //  (2) as the fast fraction grows, LTM's and PROP-G's normalized delay
  //      worsens while PROP-O's stays (nearly) flat — i.e. PROP-O's
  //      slope is smaller than both others';
  //  (3) LTM's advantage over PROP-O shrinks (or flips) from the slow-
  //      to the fast-dominated end.
  const std::size_t last = fractions.size() - 1;
  const std::size_t io4 = 2;  // PROP-O(m=4)
  const std::size_t ig = 3;   // PROP-G
  const std::size_t il = 4;   // LTM
  auto slope = [&](std::size_t i) {
    return normalized[i][last] - normalized[i][0];
  };
  const bool prop_o_wins_fast = normalized[io4][last] < normalized[il][last] &&
                                normalized[io4][last] < normalized[ig][last];
  const bool slopes_ordered =
      slope(io4) < slope(il) && slope(io4) < slope(ig);
  const bool gap_shrinks =
      (normalized[il][last] - normalized[io4][last]) >
      (normalized[il][0] - normalized[io4][0]);
  const bool holds = prop_o_wins_fast && slopes_ordered && gap_shrinks;
  char detail[320];
  std::snprintf(detail, sizeof(detail),
                "at fraction=1.0: PROP-O(m=4) %.3f vs PROP-G %.3f vs LTM "
                "%.3f; slopes (0->1): PROP-O %+.3f, PROP-G %+.3f, LTM "
                "%+.3f",
                normalized[io4][last], normalized[ig][last],
                normalized[il][last], slope(io4), slope(ig), slope(il));
  print_verdict(holds, detail);
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
