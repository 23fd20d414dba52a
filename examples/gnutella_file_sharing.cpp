// File-sharing scenario: scoped-flood search in a Gnutella-like network.
//
// Objects are published with a few replicas each; peers flood queries
// with a TTL. The example contrasts hit rate, first-response latency and
// per-query message cost before and after PROP-O optimizes the overlay —
// including the degree profile PROP-O is designed to preserve (hub peers
// keep serving many links).
#include <cstdio>
#include <vector>

#include "core/prop_engine.h"
#include "gnutella/flood_search.h"
#include "gnutella/gnutella.h"
#include "sim/scheduler.h"
#include "topology/transit_stub.h"
#include "workload/host_selection.h"

namespace {

struct SearchStats {
  double hit_rate = 0.0;
  double avg_latency_ms = 0.0;
  double avg_messages = 0.0;
};

SearchStats run_searches(propsim::OverlayNetwork& net,
                         const std::vector<std::vector<bool>>& catalogs,
                         std::uint32_t ttl, std::uint64_t seed) {
  using namespace propsim;
  Rng rng(seed);
  const auto slots = net.graph().active_slots();
  SearchStats stats;
  const int queries = 2000;
  int hits = 0;
  double latency = 0.0;
  double messages = 0.0;
  for (int i = 0; i < queries; ++i) {
    const SlotId src =
        slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    const auto& holders =
        catalogs[static_cast<std::size_t>(rng.uniform(catalogs.size()))];
    const FloodResult res = flood_search(net, src, holders, ttl);
    messages += static_cast<double>(res.messages);
    if (res.found) {
      ++hits;
      latency += res.first_response_ms;
    }
  }
  stats.hit_rate = static_cast<double>(hits) / queries;
  stats.avg_latency_ms = hits ? latency / hits : 0.0;
  stats.avg_messages = messages / queries;
  return stats;
}

}  // namespace

int main() {
  using namespace propsim;

  Rng rng(2024);
  const TransitStubTopology topo =
      make_transit_stub(TransitStubConfig::ts_large(), rng);
  const LatencyOracle oracle(topo);  // exact hierarchical engine, O(1) queries
  const auto hosts = select_stub_hosts(topo, 600, rng);
  GnutellaConfig gcfg;
  OverlayNetwork net = build_gnutella_overlay(gcfg, hosts, oracle, rng);

  // Publish 50 objects, each replicated on 3 random peers.
  std::vector<std::vector<bool>> catalogs;
  for (int obj = 0; obj < 50; ++obj) {
    std::vector<bool> holders(net.graph().slot_count(), false);
    for (const auto idx : rng.sample_indices(net.graph().slot_count(), 3)) {
      holders[idx] = true;
    }
    catalogs.push_back(std::move(holders));
  }

  constexpr std::uint32_t kTtl = 6;  // Gnutella's classic scope
  const SearchStats before = run_searches(net, catalogs, kTtl, 99);

  std::printf("optimizing overlay with PROP-O (degree-preserving)...\n");
  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropO;
  PropEngine engine(net, sim, params, 5);
  const std::size_t max_deg_before = [&] {
    std::size_t d = 0;
    for (const SlotId s : net.graph().active_slots()) {
      d = std::max(d, net.graph().degree(s));
    }
    return d;
  }();
  engine.start();
  sim.run_until(3600.0);

  const SearchStats after = run_searches(net, catalogs, kTtl, 99);
  const std::size_t max_deg_after = [&] {
    std::size_t d = 0;
    for (const SlotId s : net.graph().active_slots()) {
      d = std::max(d, net.graph().degree(s));
    }
    return d;
  }();

  std::printf("\nTTL-%u flood search over 50 objects x 3 replicas:\n", kTtl);
  std::printf("                     before      after PROP-O\n");
  std::printf("  hit rate          %6.1f%%      %6.1f%%\n",
              100.0 * before.hit_rate, 100.0 * after.hit_rate);
  std::printf("  first response    %6.1f ms    %6.1f ms\n",
              before.avg_latency_ms, after.avg_latency_ms);
  std::printf("  messages/query    %6.0f       %6.0f\n",
              before.avg_messages, after.avg_messages);
  std::printf("  hub max degree    %6zu       %6zu (preserved)\n",
              max_deg_before, max_deg_after);
  std::printf("  exchanges: %llu\n",
              static_cast<unsigned long long>(engine.stats().exchanges));
  return 0;
}
