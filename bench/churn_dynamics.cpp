// Section 5 dynamics — behaviour under churn.
//
// A converged PROP-O overlay is hit with a Poisson join/leave burst.
// The paper claims the scheme "is adaptive to dynamic changes": probing
// frequency spikes when churn perturbs neighbourhoods (timers reset,
// fresh neighbors get maximum priority) and decays again afterwards,
// while lookup latency recovers to near its converged level.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/prop_engine.h"
#include "sim/scheduler.h"
#include "workload/churn.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

int run(const BenchOptions& opts) {
  print_header(
      "Churn dynamics — probing frequency and latency through a churn "
      "burst",
      "probing frequency decays after warm-up, spikes during the churn "
      "burst, then decays again; lookup latency recovers after churn");

  const std::size_t n = opts.scale_n(800);
  const double warm_end = opts.scale_t(3600.0);
  const double churn_end = warm_end + opts.scale_t(1800.0);
  const double horizon = churn_end + opts.scale_t(5400.0);

  Rng rng(opts.seed);
  World world(TransitStubConfig::ts_large(), rng);
  auto [hosts, spares] = select_stub_hosts_with_spares(
      world.topo, n, n / 4, rng);
  GnutellaConfig gcfg;
  OverlayNetwork net =
      build_gnutella_overlay(gcfg, hosts, world.oracle, rng);

  Scheduler sim;
  PropEngine engine(net, sim, PropParams{.mode = PropMode::kPropO},
                    opts.seed + 1);

  ChurnParams cparams;
  cparams.join_rate_per_s = opts.quick ? 0.4 : 0.5;
  cparams.leave_rate_per_s = cparams.join_rate_per_s;
  // One in five departures is a crash with no graceful handoff; the
  // survivors' repair links then feed PROP's churn hooks.
  cparams.fail_rate_per_s = cparams.join_rate_per_s / 5.0;
  cparams.start_s = warm_end;
  cparams.end_s = churn_end;
  ChurnProcess churn(net, sim, &engine, gcfg, cparams, spares,
                     opts.seed + 2);

  // Sample probing frequency (attempts per node per second, windowed)
  // and lookup latency over time.
  const double window = horizon / 36.0;
  TimeSeries fp("f_p");
  TimeSeries lookup("lookup_ms");
  std::uint64_t last_attempts = 0;
  Rng qrng(opts.seed + 3);
  MeasureEngine measure(MeasureEngine::kAutoThreads);
  for (double t = window; t <= horizon + 1e-9; t += window) {
    sim.schedule_at(t, [&, t] {
      const std::uint64_t now_attempts = engine.stats().attempts;
      fp.record(t, static_cast<double>(now_attempts - last_attempts) /
                       (window * static_cast<double>(net.size())));
      last_attempts = now_attempts;
      const auto queries =
          uniform_queries(net.graph(), opts.scale_q(2000), qrng);
      lookup.record(t, measure.average_lookup_latency(
                           OverlaySnapshot::capture(net), queries));
    });
  }

  engine.start();
  churn.start();
  sim.run_until(horizon);

  print_csv_block("churn_dynamics", series_to_csv({fp, lookup}, 36));
  std::printf("churn events: %llu joins, %llu leaves, %llu crashes "
              "(%llu repair links)\n",
              static_cast<unsigned long long>(churn.joins()),
              static_cast<unsigned long long>(churn.leaves()),
              static_cast<unsigned long long>(churn.failures()),
              static_cast<unsigned long long>(churn.repair_links()));

  const double fp_before = fp.value_at(warm_end - window / 2.0);
  const double fp_during = fp.value_at(churn_end - window / 2.0);
  const double fp_after = fp.value_at(horizon - window / 2.0);
  const double lat_converged = lookup.value_at(warm_end - window / 2.0);
  const double lat_final = lookup.value_at(horizon - window / 2.0);
  // Worst latency while churn is perturbing the overlay: recovery means
  // the post-churn optimization pulls back below this peak toward the
  // converged level.
  double lat_churn_peak = 0.0;
  for (const auto& p : lookup.points()) {
    if (p.time >= warm_end && p.time <= churn_end + window) {
      lat_churn_peak = std::max(lat_churn_peak, p.value);
    }
  }

  const bool connected = net.graph().active_subgraph_connected();
  const bool spike = fp_during > fp_before * 1.2;
  const bool decays = fp_after < fp_during;
  const bool recovers = lat_final < lat_churn_peak &&
                        lat_final < lat_converged * 1.25;
  const bool holds = connected && spike && decays && recovers;
  char detail[320];
  std::snprintf(detail, sizeof(detail),
                "f_p: pre-churn %.4f, during %.4f, post %.4f /node/s; "
                "lookup: converged %.0f ms, churn peak %.0f ms, final "
                "%.0f ms; overlay connected=%d",
                fp_before, fp_during, fp_after, lat_converged,
                lat_churn_peak, lat_final, connected);
  print_verdict(holds, detail);
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
