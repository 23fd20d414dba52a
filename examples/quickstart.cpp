// Quickstart: build a physical Internet model, put an unstructured
// overlay on top, run PROP-G for a simulated hour, and watch the
// topology mismatch shrink.
//
//   $ ./quickstart
//
// Walks through the five propsim steps every application uses:
//   1. generate a transit-stub physical network,
//   2. select overlay hosts and build an overlay,
//   3. attach a PROP engine to a discrete-event simulator,
//   4. run simulated time,
//   5. measure (lookup latency / stretch) before vs after.
#include <cstdio>

#include "core/prop_engine.h"
#include "gnutella/gnutella.h"
#include "metrics/metrics.h"
#include "sim/scheduler.h"
#include "topology/transit_stub.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

int main() {
  using namespace propsim;

  // 1. Physical network: the paper's ts-large Internet model (~4.8k
  //    routers; stub-stub 5 ms, stub-transit 20 ms, transit-transit
  //    100 ms links).
  Rng rng(42);
  const TransitStubTopology topo =
      make_transit_stub(TransitStubConfig::ts_large(), rng);
  const LatencyOracle oracle(topo);  // exact hierarchical engine, O(1) queries
  std::printf("physical network: %zu nodes, %zu links\n",
              topo.graph.node_count(), topo.graph.edge_count());

  // 2. Overlay: 500 peers on random stub hosts, Gnutella-style random
  //    attachment (4 links each).
  const auto hosts = select_stub_hosts(topo, 500, rng);
  GnutellaConfig gcfg;
  OverlayNetwork net = build_gnutella_overlay(gcfg, hosts, oracle, rng);
  std::printf("overlay: %zu peers, %zu logical links, avg degree %.1f\n",
              net.size(), net.graph().edge_count(),
              net.graph().average_active_degree());

  // 3. Protocol: PROP-G with the paper's defaults (nhops=2, 60 s timer).
  Scheduler sim;
  PropParams params;  // PropMode::kPropG by default
  PropEngine engine(net, sim, params, /*seed=*/7);

  // A fixed workload to measure against: 5000 random lookups.
  Rng qrng(11);
  const auto queries = uniform_queries(net.graph(), 5000, qrng);
  const double before = average_unstructured_lookup_latency(net, queries);

  // 4. Simulate one hour.
  engine.start();
  sim.run_until(3600.0);

  // 5. Results.
  const double after = average_unstructured_lookup_latency(net, queries);
  std::printf("\nafter 1 simulated hour of PROP-G:\n");
  std::printf("  exchanges committed : %llu (of %llu probe attempts)\n",
              static_cast<unsigned long long>(engine.stats().exchanges),
              static_cast<unsigned long long>(engine.stats().attempts));
  std::printf("  avg lookup latency  : %.1f ms -> %.1f ms (%.2fx better)\n",
              before, after, before / after);
  std::printf("  avg logical link    : %.1f ms\n",
              net.average_logical_link_latency());
  std::printf("  protocol messages   : %llu total\n",
              static_cast<unsigned long long>(net.traffic().control_total()));
  return 0;
}
