// Section 4.3 — overhead analysis table.
//
// The paper derives the per-adjustment message cost as (nhops + 2c) for
// PROP-G (c = average degree) and (nhops + 2m) for PROP-O, and argues
// the probing frequency f_p decays after the warm-up thanks to the
// Markov-chain backoff. This bench *measures* both: control messages per
// probe attempt while sweeping the overlay's average degree, against the
// analytic prediction, plus the probing frequency over time.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "core/prop_engine.h"
#include "metrics/convergence.h"
#include "sim/scheduler.h"

namespace propsim::bench {
namespace {

struct Measurement {
  double avg_degree = 0.0;
  double per_attempt_g = 0.0;
  double per_attempt_o = 0.0;
  double predicted_g = 0.0;
  double predicted_o = 0.0;
};

Measurement measure(std::size_t attach_links, const BenchOptions& opts) {
  Measurement out;
  const std::size_t n = opts.scale_n(600);
  const double horizon = opts.scale_t(1200.0);

  for (const PropMode mode : {PropMode::kPropG, PropMode::kPropO}) {
    Rng rng(opts.seed + attach_links);
    World world(TransitStubConfig::ts_large(), rng);
    GnutellaConfig gcfg;
    gcfg.attach_links = attach_links;
    const auto hosts = [&] {
      std::vector<NodeId> h;
      Rng hrng = rng.split();
      const auto idx = hrng.sample_indices(world.topo.stub_nodes.size(), n);
      for (const auto i : idx) h.push_back(world.topo.stub_nodes[i]);
      return h;
    }();
    OverlayNetwork net =
        build_gnutella_overlay(gcfg, hosts, world.oracle, rng);
    out.avg_degree = net.graph().average_active_degree();

    Scheduler sim;
    PropParams params{.mode = mode};
    params.m = 2;  // fixed m for a clean nhops + 2m prediction
    PropEngine engine(net, sim, params, opts.seed + 3);
    engine.start();
    net.traffic().reset();
    sim.run_until(horizon);

    // Walk + probe messages are the paper's "information collection"
    // cost; notifications/ctrl are the reconstruction cost, charged only
    // on committed exchanges.
    const double walks =
        static_cast<double>(net.traffic().by_kind(MessageKind::kWalk));
    const double probes =
        static_cast<double>(net.traffic().by_kind(MessageKind::kProbe));
    const double attempts = static_cast<double>(engine.stats().attempts);
    const double per_attempt = (walks + probes) / attempts;
    if (mode == PropMode::kPropG) {
      out.per_attempt_g = per_attempt;
      out.predicted_g = static_cast<double>(params.nhops) +
                        2.0 * net.graph().average_active_degree();
    } else {
      out.per_attempt_o = per_attempt;
      out.predicted_o =
          static_cast<double>(params.nhops) + 2.0 * params.m;
    }
  }
  return out;
}

int run(const BenchOptions& opts) {
  print_header(
      "Section 4.3 — per-adjustment overhead and probing frequency",
      "one adjustment costs ~(nhops + 2c) messages for PROP-G vs "
      "~(nhops + 2m) for PROP-O, so PROP-O wins when c >> m; probing "
      "frequency decays after the warm-up via exponential backoff");

  Table table({"avg_degree", "PROP-G msgs/attempt", "predicted nhops+2c",
               "PROP-O msgs/attempt", "predicted nhops+2m"});
  bool holds = true;
  double last_ratio = 0.0;
  for (const std::size_t attach : {std::size_t{4}, std::size_t{8},
                                   std::size_t{12}}) {
    const auto m = measure(attach, opts);
    table.add_row_values(
        {m.avg_degree, m.per_attempt_g, m.predicted_g, m.per_attempt_o,
         m.predicted_o});
    // Measured within 35% of the analytic count (exchange failure paths
    // probe slightly fewer than the model's 2c), and PROP-O strictly
    // cheaper with the gap widening as c grows.
    holds = holds && std::abs(m.per_attempt_g - m.predicted_g) <
                         0.35 * m.predicted_g;
    holds = holds && std::abs(m.per_attempt_o - m.predicted_o) <
                         0.35 * m.predicted_o;
    const double ratio = m.per_attempt_g / m.per_attempt_o;
    holds = holds && ratio > 1.0 && ratio > last_ratio;
    last_ratio = ratio;
  }
  print_csv_block("tab_overhead", table.to_csv());
  std::printf("%s", table.to_ascii().c_str());

  // Probing frequency over time: average attempts per node per second,
  // sampled in windows.
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    OverlayNetwork net = build_unstructured(world, opts.scale_n(600), rng);
    Scheduler sim;
    PropEngine engine(net, sim, PropParams{.mode = PropMode::kPropG},
                      opts.seed + 5);
    const double horizon = opts.scale_t(14400.0);
    const double window = horizon / 24.0;
    std::uint64_t last_attempts = 0;
    TimeSeries fp("f_p");
    for (double t = window; t <= horizon + 1e-9; t += window) {
      sim.schedule_at(t, [&, t] {
        const std::uint64_t now_attempts = engine.stats().attempts;
        fp.record(t, static_cast<double>(now_attempts - last_attempts) /
                         (window * static_cast<double>(net.size())));
        last_attempts = now_attempts;
      });
    }
    engine.start();
    sim.run_until(horizon);
    print_csv_block("probing_frequency", series_to_csv({fp}, 24));
    const double early = fp.points().front().value;
    const double late = fp.points().back().value;
    holds = holds && late < early * 0.5;
    std::printf("probing frequency: warm-up %.4f /node/s -> converged "
                "%.4f /node/s (worst case 1/INIT_TIMER = %.4f)\n",
                early, late, 1.0 / 60.0);
  }

  print_verdict(holds,
                "measured per-attempt message cost tracks the analytic "
                "nhops+2c / nhops+2m counts and f_p decays after warm-up");
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
