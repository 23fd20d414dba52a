// Heterogeneous swarm: fast hubs and slow peers (the paper's Section
// 5.3 setting as an application scenario).
//
// A media-sharing swarm where 20% of peers are well-provisioned (10 ms
// processing) and attract most requests. Shows why degree preservation
// matters: PROP-O relocates peers while every hub keeps its fan-out,
// whereas LTM's cut-and-add erodes hub degrees and slows exactly the
// popular lookups.
#include <cstdio>

#include "baselines/ltm.h"
#include "core/prop_engine.h"
#include "gnutella/gnutella.h"
#include "measure/measure_engine.h"
#include "sim/scheduler.h"
#include "topology/transit_stub.h"
#include "workload/heterogeneity.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace {

using namespace propsim;

struct SwarmResult {
  double popular_ms = 0.0;   // lookups destined to fast hubs (90%)
  double unpopular_ms = 0.0; // lookups destined to slow peers
  std::size_t hub_min_degree = 0;
};

template <typename OptimizeFn>
SwarmResult run_swarm(const char* label, MeasureEngine& measure,
                      OptimizeFn&& optimize) {
  Rng rng(33);
  const TransitStubTopology topo =
      make_transit_stub(TransitStubConfig::ts_large(), rng);
  const LatencyOracle oracle(topo);  // exact hierarchical engine, O(1) queries
  const auto hosts = select_stub_hosts(topo, 600, rng);
  GnutellaConfig gcfg;
  OverlayNetwork net = build_gnutella_overlay(gcfg, hosts, oracle, rng);

  Rng hrng(34);
  BimodalConfig bcfg;  // 20% fast (10ms) / 80% slow (100ms)
  const auto delays = make_bimodal_delays_by_degree(net, bcfg, hrng);

  optimize(net);

  const auto fast = delays.slot_fast(net);
  const auto proc = delays.slot_delays(net);
  Rng qrng(35);
  const auto popular = biased_queries(net.graph(), fast, 1.0, 3000, qrng);
  const auto unpopular = biased_queries(net.graph(), fast, 0.0, 3000, qrng);

  SwarmResult r;
  const OverlaySnapshot snap = OverlaySnapshot::capture(net);
  r.popular_ms = measure.average_lookup_latency(snap, popular, &proc);
  r.unpopular_ms = measure.average_lookup_latency(snap, unpopular, &proc);
  r.hub_min_degree = static_cast<std::size_t>(-1);
  for (const SlotId s : net.graph().active_slots()) {
    if (fast[s]) {
      r.hub_min_degree = std::min(r.hub_min_degree, net.graph().degree(s));
    }
  }
  std::printf("%-10s popular %.0f ms, unpopular %.0f ms, weakest hub "
              "degree %zu\n",
              label, r.popular_ms, r.unpopular_ms, r.hub_min_degree);
  return r;
}

}  // namespace

int main() {
  std::printf("swarm: 600 peers, 20%% fast hubs, 90%% of demand on hubs\n\n");
  MeasureEngine measure(MeasureEngine::kAutoThreads);

  const SwarmResult plain =
      run_swarm("baseline", measure, [](OverlayNetwork&) {});

  const SwarmResult prop_o =
      run_swarm("PROP-O", measure, [](OverlayNetwork& net) {
        Scheduler sim;
        PropParams params;
        params.mode = PropMode::kPropO;
        PropEngine engine(net, sim, params, 36);
        engine.start();
        sim.run_until(3600.0);
      });

  const SwarmResult ltm = run_swarm("LTM", measure, [](OverlayNetwork& net) {
    Scheduler sim;
    LtmEngine engine(net, sim, /*interval_s=*/60.0, 37);
    engine.start();
    sim.run_until(3600.0);
  });

  std::printf("\npopular-content latency: baseline %.0f ms, PROP-O %.0f "
              "ms, LTM %.0f ms\n",
              plain.popular_ms, prop_o.popular_ms, ltm.popular_ms);
  std::printf("PROP-O keeps every hub's degree (weakest hub: %zu links vs "
              "%zu under LTM)\n",
              prop_o.hub_min_degree, ltm.hub_min_degree);
  std::printf("=> degree preservation is what protects the swarm's "
              "capacity where the demand is\n");
  return 0;
}
