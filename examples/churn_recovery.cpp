// Churn recovery: peers come and go; PROP adapts.
//
// Runs a PROP-O overlay through three phases — warm-up, a flash-crowd
// churn burst, and recovery — printing a live timeline of population,
// lookup latency and probing activity. Shows the Markov-chain timer in
// action: probing quiesces once converged, wakes up when churn disturbs
// neighborhoods, and quiesces again.
#include <cstdio>

#include "core/prop_engine.h"
#include "gnutella/gnutella.h"
#include "metrics/metrics.h"
#include "sim/scheduler.h"
#include "topology/transit_stub.h"
#include "workload/churn.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

int main() {
  using namespace propsim;

  Rng rng(55);
  const TransitStubTopology topo =
      make_transit_stub(TransitStubConfig::ts_large(), rng);
  const LatencyOracle oracle(topo);  // exact hierarchical engine, O(1) queries
  auto [hosts, spares] = select_stub_hosts_with_spares(topo, 500, 150, rng);
  GnutellaConfig gcfg;
  OverlayNetwork net = build_gnutella_overlay(gcfg, hosts, oracle, rng);

  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropO;
  PropEngine engine(net, sim, params, 56);

  ChurnParams cparams;
  cparams.join_rate_per_s = 0.5;
  cparams.leave_rate_per_s = 0.5;
  cparams.start_s = 3600.0;   // burst starts after convergence
  cparams.end_s = 5400.0;     // ...and lasts 30 minutes
  ChurnProcess churn(net, sim, &engine, gcfg, cparams, spares, 57);

  std::printf("time(min)  peers  lookup(ms)  probes/min  phase\n");
  std::printf("--------------------------------------------------\n");
  const double horizon = 10800.0;  // 3 hours
  const double step = 600.0;       // report every 10 minutes
  std::uint64_t last_attempts = 0;
  Rng qrng(58);
  for (double t = step; t <= horizon; t += step) {
    sim.schedule_at(t, [&, t] {
      const auto queries = uniform_queries(net.graph(), 1500, qrng);
      const double lookup =
          average_unstructured_lookup_latency(net, queries);
      const std::uint64_t attempts = engine.stats().attempts;
      const double probes_per_min =
          static_cast<double>(attempts - last_attempts) / (step / 60.0);
      last_attempts = attempts;
      const char* phase = t <= cparams.start_s  ? "warm-up/converged"
                          : t <= cparams.end_s ? "CHURN BURST"
                                               : "recovery";
      std::printf("%8.0f  %5zu  %9.0f  %9.0f  %s\n", t / 60.0, net.size(),
                  lookup, probes_per_min, phase);
    });
  }

  engine.start();
  churn.start();
  sim.run_until(horizon);

  std::printf("--------------------------------------------------\n");
  std::printf("churn: %llu joins, %llu leaves; overlay %s; %llu "
              "exchanges total\n",
              static_cast<unsigned long long>(churn.joins()),
              static_cast<unsigned long long>(churn.leaves()),
              net.graph().active_subgraph_connected() ? "connected"
                                                      : "PARTITIONED",
              static_cast<unsigned long long>(engine.stats().exchanges));
  return 0;
}
