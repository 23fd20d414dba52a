#include "baselines/selfish.h"

#include <algorithm>

namespace propsim {
namespace {

/// Walk TTL used to discover candidates (PROP's default nhops).
constexpr std::size_t kSelfishWalkTtl = 2;

}  // namespace

SelfishOutcome selfish_step(OverlayNetwork& net, SlotId u, Rng& rng) {
  SelfishOutcome outcome;
  const LogicalGraph& g = net.graph();
  if (!g.is_active(u) || g.degree(u) == 0) return outcome;

  const auto neighbors = g.neighbors(u);
  const SlotId first =
      neighbors[static_cast<std::size_t>(rng.uniform(neighbors.size()))];
  std::vector<SlotId> walk;
  const bool reached = net.random_walk(u, first, kSelfishWalkTtl, rng, walk);
  net.traffic().count(net.placement().host_of(u), MessageKind::kWalk,
                      kSelfishWalkTtl);
  if (!reached) return outcome;
  const SlotId candidate = walk.back();
  if (g.has_edge(u, candidate)) return outcome;

  // Farthest current neighbor that can afford to lose a link; the walk
  // path's first hop is spared so u keeps its route to the candidate.
  SlotId farthest = kInvalidSlot;
  double farthest_latency = -1.0;
  for (const SlotId i : neighbors) {
    if (g.degree(i) <= kSelfishMinDegree) continue;
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

}  // namespace propsim
