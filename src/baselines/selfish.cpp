#include "baselines/selfish.h"

#include <algorithm>

#include "common/check.h"

namespace propsim {

SelfishOutcome selfish_step(OverlayNetwork& net, SlotId u,
                            const SelfishParams& params, Rng& rng) {
  SelfishOutcome outcome;
  const LogicalGraph& g = net.graph();
  if (!g.is_active(u) || g.degree(u) == 0) return outcome;

  const auto neighbors = g.neighbors(u);
  const SlotId first =
      neighbors[static_cast<std::size_t>(rng.uniform(neighbors.size()))];
  std::vector<SlotId> walk;
  const bool reached = net.random_walk(u, first, params.nhops, rng, walk);
  net.traffic().count(net.placement().host_of(u), MessageKind::kWalk,
                      params.nhops);
  if (!reached) return outcome;
  const SlotId candidate = walk.back();
  if (g.has_edge(u, candidate)) return outcome;

  // Farthest current neighbor that can afford to lose a link; the walk
  // path's first hop is spared so u keeps its route to the candidate.
  SlotId farthest = kInvalidSlot;
  double farthest_latency = -1.0;
  for (const SlotId i : neighbors) {
    if (g.degree(i) <= params.min_degree) continue;
    if (std::find(walk.begin(), walk.end(), i) != walk.end()) continue;
    const double lat = net.slot_latency(u, i);
    if (lat > farthest_latency) {
      farthest = i;
      farthest_latency = lat;
    }
  }
  if (farthest == kInvalidSlot) return outcome;

  const double candidate_latency = net.slot_latency(u, candidate);
  net.traffic().count(net.placement().host_of(u), MessageKind::kProbe);
  if (candidate_latency >= farthest_latency) return outcome;

  net.remove_edge(u, farthest);
  net.add_edge(u, candidate);
  net.traffic().count(net.placement().host_of(u), MessageKind::kExchangeCtrl);
  outcome.rewired = true;
  outcome.gain = farthest_latency - candidate_latency;
  return outcome;
}

double endpoint_cost_now(const OverlayNetwork& net, SlotId endpoint) {
  return net.neighbor_latency_sum(endpoint);
}

double endpoint_cost_after(const OverlayNetwork& net,
                           const ExchangeView& view, SlotId endpoint) {
  PROPSIM_DCHECK(endpoint == view.u || endpoint == view.v);
  const SlotId other = endpoint == view.u ? view.v : view.u;
  const LogicalGraph& g = net.graph();
  if (view.prop_g) {
    // The endpoint's host takes the other slot's seat; every other host
    // stays put, so current slot latencies still describe the pairs —
    // except the other slot's old seat, now occupied by the counterpart.
    double cost = 0.0;
    for (const SlotId n : g.neighbors(other)) {
      cost += n == endpoint ? net.slot_latency(endpoint, other)
                            : net.slot_latency(endpoint, n);
    }
    return cost;
  }
  const SlotId gives = endpoint == view.u ? view.from_u : view.from_v;
  const SlotId takes = endpoint == view.u ? view.from_v : view.from_u;
  return endpoint_cost_now(net, endpoint) -
         net.slot_latency(endpoint, gives) + net.slot_latency(endpoint, takes);
}

double selfish_gain(const OverlayNetwork& net, const ExchangeView& view,
                    SlotId endpoint) {
  return endpoint_cost_now(net, endpoint) -
         endpoint_cost_after(net, view, endpoint);
}

}  // namespace propsim
