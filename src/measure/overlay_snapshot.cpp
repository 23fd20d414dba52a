#include "measure/overlay_snapshot.h"

#include <algorithm>

namespace propsim {

OverlaySnapshot OverlaySnapshot::capture(
    const OverlayNetwork& net, const OverlayNetwork::LinkFilter* link_ok) {
  const LogicalGraph& graph = net.graph();
  const std::size_t n = graph.slot_count();
  std::vector<std::uint8_t> active(n);
  std::vector<std::size_t> offsets(n + 1);
  std::vector<SlotId> targets;
  std::vector<double> latencies_ms;
  // 2 * edge_count is exact without a filter and an upper bound with one.
  targets.reserve(2 * graph.edge_count());
  latencies_ms.reserve(2 * graph.edge_count());
  for (SlotId s = 0; s < n; ++s) {
    offsets[s] = targets.size();
    active[s] = graph.is_active(s) ? 1 : 0;
    const std::span<const SlotId> neighbors = graph.neighbors(s);
    const std::span<const double> weights = net.neighbor_latencies(s);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (link_ok != nullptr && !(*link_ok)(s, neighbors[i])) continue;
      targets.push_back(neighbors[i]);
      latencies_ms.push_back(weights[i]);
    }
  }
  offsets[n] = targets.size();
  return from_csr(std::move(active), std::move(offsets), std::move(targets),
                  std::move(latencies_ms));
}

OverlaySnapshot OverlaySnapshot::from_csr(std::vector<std::uint8_t> active,
                                          std::vector<std::size_t> offsets,
                                          std::vector<SlotId> targets,
                                          std::vector<double> latencies_ms) {
  PROPSIM_CHECK(offsets.size() == active.size() + 1);
  PROPSIM_CHECK(offsets.front() == 0 && offsets.back() == targets.size());
  PROPSIM_CHECK(std::is_sorted(offsets.begin(), offsets.end()));
  PROPSIM_CHECK(latencies_ms.size() == targets.size());
  OverlaySnapshot snap;
  for (std::size_t e = 0; e < targets.size(); ++e) {
    PROPSIM_CHECK(targets[e] < active.size());
    PROPSIM_CHECK(latencies_ms[e] >= 0.0);  // false for NaN too
    snap.min_edge_ms_ = std::min(snap.min_edge_ms_, latencies_ms[e]);
  }
  snap.active_ = std::move(active);
  snap.offsets_ = std::move(offsets);
  snap.targets_ = std::move(targets);
  snap.latency_ms_ = std::move(latencies_ms);
  return snap;
}

}  // namespace propsim
