#include "gnutella/gnutella.h"

#include <algorithm>

namespace propsim {
namespace {

/// Share of each joiner's links chosen preferentially (endpoint of a
/// uniformly random existing edge: probability proportional to degree);
/// the rest are uniform over peers. Half and half gives the heavy degree
/// tail measured on Gnutella.
constexpr double kPreferentialFraction = 0.5;

/// Picks attach targets among active slots: preferential picks follow a
/// random edge endpoint (degree-proportional), uniform picks draw from
/// `pool`. Repeats and `self` are rejected.
std::vector<SlotId> pick_attach_targets(const LogicalGraph& g,
                                        std::span<const SlotId> pool,
                                        SlotId self, std::size_t want,
                                        Rng& rng) {
  std::vector<SlotId> targets;
  targets.reserve(want);
  std::size_t attempts = 0;
  const std::size_t max_attempts = 200 * (want + 1);
  while (targets.size() < want && attempts < max_attempts) {
    ++attempts;
    SlotId candidate = kInvalidSlot;
    if (g.edge_count() > 0 && rng.bernoulli(kPreferentialFraction)) {
      // Degree-biased: uniformly random slot from pool, then one of its
      // incident edges' endpoints; high-degree slots surface more often.
      const SlotId anchor = rng.pick(pool);
      const auto neigh = g.neighbors(anchor);
      if (!neigh.empty()) {
        candidate = neigh[static_cast<std::size_t>(rng.uniform(neigh.size()))];
      }
    }
    if (candidate == kInvalidSlot) candidate = rng.pick(pool);
    if (candidate == self) continue;
    if (std::find(targets.begin(), targets.end(), candidate) !=
        targets.end()) {
      continue;
    }
    targets.push_back(candidate);
  }
  return targets;
}

}  // namespace

OverlayNetwork build_gnutella_overlay(const GnutellaConfig& config,
                                      std::span<const NodeId> hosts,
                                      const LatencyOracle& oracle, Rng& rng,
                                      obs::EventBus* trace) {
  PROPSIM_CHECK(config.attach_links >= 1);
  PROPSIM_CHECK(hosts.size() > config.attach_links);

  const std::size_t n = hosts.size();
  LogicalGraph graph(n);

  // Join order is random so slot index carries no structural meaning.
  std::vector<SlotId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<SlotId>(i);
  rng.shuffle(order);

  // Seed clique keeps min degree == attach_links.
  const std::size_t seed = config.attach_links + 1;
  for (std::size_t i = 0; i < seed; ++i) {
    for (std::size_t j = i + 1; j < seed; ++j) {
      graph.add_edge(order[i], order[j]);
    }
  }

  std::vector<SlotId> joined(order.begin(),
                             order.begin() + static_cast<std::ptrdiff_t>(seed));
  for (std::size_t i = seed; i < n; ++i) {
    const SlotId joiner = order[i];
    const auto targets =
        pick_attach_targets(graph, joined, joiner, config.attach_links, rng);
    PROPSIM_CHECK(targets.size() == config.attach_links);
    for (const SlotId t : targets) graph.add_edge(joiner, t);
    joined.push_back(joiner);
  }

  PROPSIM_CHECK(graph.active_subgraph_connected());
  PROPSIM_CHECK(graph.min_active_degree() == config.attach_links);
  return bind_overlay(std::move(graph), hosts, oracle, trace);
}

SlotId gnutella_join(OverlayNetwork& net, const GnutellaConfig& config,
                     NodeId host, Rng& rng) {
  const auto pool = net.graph().active_slots();
  PROPSIM_CHECK(pool.size() >= config.attach_links);
  const SlotId joiner = net.join(host);
  const auto targets =
      pick_attach_targets(net.graph(), pool, joiner, config.attach_links, rng);
  PROPSIM_CHECK(!targets.empty());
  for (const SlotId t : targets) net.add_edge(joiner, t);
  if (obs::EventBus* bus = net.trace()) {
    bus->emit(obs::TraceEventKind::kJoin, joiner, host);
  }
  return joiner;
}

}  // namespace propsim
