#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lint_rules.h"
#include "common/rng.h"
#include "fixtures.h"
#include "overlay/graph_io.h"
#include "overlay/isomorphism.h"
#include "overlay/logical_graph.h"
#include "overlay/overlay_network.h"
#include "overlay/placement.h"
#include "topology/random_graphs.h"

namespace propsim {
namespace {

using testing::run_rule;

// ------------------------------------------------------- LogicalGraph ----

TEST(LogicalGraph, EdgesAndDegrees) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.degree(1), 2u);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(LogicalGraph, DeactivateRemovesIncidentEdges) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.deactivate_slot(0);
  EXPECT_FALSE(g.is_active(0));
  EXPECT_EQ(g.active_count(), 3u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(LogicalGraph, ReactivateStartsIsolated) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.deactivate_slot(1);
  g.reactivate_slot(1);
  EXPECT_TRUE(g.is_active(1));
  EXPECT_EQ(g.degree(1), 0u);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(LogicalGraph, ActiveConnectivityIgnoresInactive) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.active_subgraph_connected());
  g.deactivate_slot(3);
  EXPECT_TRUE(g.active_subgraph_connected());
  g.deactivate_slot(1);
  EXPECT_FALSE(g.active_subgraph_connected());  // 0 | 2 split
}

TEST(LogicalGraph, DegreeMultisetSorted) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto d = g.degree_multiset();
  EXPECT_EQ(d, (std::vector<std::size_t>{1, 1, 1, 3}));
}

TEST(LogicalGraph, MinAndAverageActiveDegree) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.min_active_degree(), 1u);
  EXPECT_NEAR(g.average_active_degree(), 4.0 / 3.0, 1e-12);
}

TEST(LogicalGraph, AddSlotGrows) {
  LogicalGraph g(2);
  const SlotId s = g.add_slot();
  EXPECT_EQ(s, 2u);
  EXPECT_EQ(g.active_count(), 3u);
  g.add_edge(0, s);
  EXPECT_TRUE(g.has_edge(s, 0));
}

TEST(LogicalGraph, VersionAdvancesOnEveryMutation) {
  LogicalGraph g(4);
  EXPECT_NE(g.version(), kNoStamp);
  // version() is the last stamp any mutator drew; reads leave it alone.
  std::uint64_t version = g.version();
  const auto rose = [&] {
    const bool up = g.version() > version;
    version = g.version();
    return up;
  };
  g.add_edge(0, 1);
  EXPECT_TRUE(rose());
  g.remove_edge(1, 0);
  EXPECT_TRUE(rose());
  g.add_edge(2, 3);
  EXPECT_TRUE(rose());
  g.deactivate_slot(2);
  EXPECT_TRUE(rose());
  g.reactivate_slot(2);
  EXPECT_TRUE(rose());
  // An isolated slot removes no edge on departure; it still moves the
  // version, because its activity changed.
  g.deactivate_slot(2);
  EXPECT_TRUE(rose());
  g.reactivate_slot(2);
  EXPECT_TRUE(rose());
  const SlotId fresh = g.add_slot();
  EXPECT_TRUE(rose());
  (void)g.has_edge(0, fresh);
  (void)g.active_slots();
  (void)g.active_subgraph_connected();
  EXPECT_FALSE(rose());
  // A copy carries the version, and the clock is shared: a mutation of
  // either copy draws above everything the other has seen.
  LogicalGraph copy = g;
  EXPECT_EQ(copy.version(), g.version());
  copy.add_edge(0, fresh);
  g.add_edge(1, fresh);
  EXPECT_GT(g.version(), copy.version());
  EXPECT_GT(copy.version(), version);
}

// remove_edge reports where the edge sat in each list: the last entry
// of each list moved into that position.
TEST(LogicalGraph, RemoveEdgeReportsFreedPositions) {
  LogicalGraph g(5);
  for (const SlotId v : {1, 2, 3, 4}) g.add_edge(0, v);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  // 0: [1 2 3 4], 2: [0 1 3]
  const auto [at0, at2] = g.remove_edge(0, 2);
  EXPECT_EQ(at0, 1u);
  EXPECT_EQ(at2, 0u);
  EXPECT_EQ(std::vector<SlotId>(g.neighbors(0).begin(), g.neighbors(0).end()),
            (std::vector<SlotId>{1, 4, 3}));
  EXPECT_EQ(std::vector<SlotId>(g.neighbors(2).begin(), g.neighbors(2).end()),
            (std::vector<SlotId>{3, 1}));
  // Removing a list's last entry frees the last position.
  const auto [at0_last, at3] = g.remove_edge(0, 3);
  EXPECT_EQ(at0_last, 2u);
  EXPECT_EQ(at3, 0u);
}

// Versions drawn concurrently (a sweep runs one experiment per worker)
// are unique across threads and increasing within each.
TEST(MutationStamp, UniqueAcrossThreadsIncreasingWithinEach) {
  constexpr int kThreads = 4;
  constexpr int kDraws = 20000;
  std::vector<std::vector<std::uint64_t>> drawn(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&drawn, t] {
      LogicalGraph g(2);
      for (int i = 0; i < kDraws; ++i) {
        g.add_edge(0, 1);
        drawn[t].push_back(g.version());
        g.remove_edge(0, 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::set<std::uint64_t> all;
  for (const auto& stamps : drawn) {
    EXPECT_TRUE(std::adjacent_find(stamps.begin(), stamps.end(),
                                   std::greater_equal<std::uint64_t>{}) ==
                stamps.end());
    all.insert(stamps.begin(), stamps.end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kDraws));
}

// ---------------------------------------------------------- Placement ----

TEST(Placement, BindUnbindRoundTrip) {
  Placement p(3, 10);
  p.bind(0, 7);
  p.bind(2, 4);
  EXPECT_TRUE(p.slot_bound(0));
  EXPECT_FALSE(p.slot_bound(1));
  EXPECT_EQ(p.host_of(0), 7u);
  EXPECT_EQ(p.slot_of(7), 0u);
  EXPECT_EQ(p.bound_count(), 2u);
  EXPECT_TRUE(run_rule("placement-bijection", {.placement = &p}).passed());
  p.unbind(0);
  EXPECT_FALSE(p.slot_bound(0));
  EXPECT_FALSE(p.host_bound(7));
  EXPECT_TRUE(run_rule("placement-bijection", {.placement = &p}).passed());
}

TEST(Placement, SwapSlotsExchangesHosts) {
  Placement p(3, 10);
  p.bind(0, 5);
  p.bind(1, 6);
  p.swap_slots(0, 1);
  EXPECT_EQ(p.host_of(0), 6u);
  EXPECT_EQ(p.host_of(1), 5u);
  EXPECT_EQ(p.slot_of(5), 1u);
  EXPECT_EQ(p.slot_of(6), 0u);
  EXPECT_TRUE(run_rule("placement-bijection", {.placement = &p}).passed());
}

TEST(Placement, BoundHostsOrderedBySlot) {
  Placement p(4, 10);
  p.bind(3, 2);
  p.bind(1, 9);
  EXPECT_EQ(p.bound_hosts(), (std::vector<NodeId>{9, 2}));
}

TEST(Placement, VersionAdvancesOnEveryHostChange) {
  Placement p(3, 10);
  EXPECT_NE(p.version(), kNoStamp);
  // version() is the last stamp any mutator drew; reads leave it alone.
  std::uint64_t version = p.version();
  const auto rose = [&] {
    const bool up = p.version() > version;
    version = p.version();
    return up;
  };
  p.bind(0, 5);
  EXPECT_TRUE(rose());
  p.bind(1, 6);
  EXPECT_TRUE(rose());
  p.swap_slots(0, 1);
  EXPECT_TRUE(rose());
  p.unbind(1);
  EXPECT_TRUE(rose());
  p.ensure_slot_capacity(5);
  EXPECT_TRUE(rose());
  p.ensure_slot_capacity(5);  // no growth, no mutation
  (void)p.host_of(0);
  (void)p.bound_hosts();
  EXPECT_FALSE(rose());
}

TEST(Placement, EnsureSlotCapacityGrows) {
  Placement p(1, 5);
  p.ensure_slot_capacity(3);
  p.bind(2, 0);
  EXPECT_EQ(p.host_of(2), 0u);
  EXPECT_TRUE(run_rule("placement-bijection", {.placement = &p}).passed());
}

// ----------------------------------------------------- OverlayNetwork ----

class OverlayNetworkTest : public ::testing::Test {
 protected:
  OverlayNetworkTest() : physical_(make_ring()), oracle_(physical_) {}

  static Graph make_ring() {
    // 6-host physical ring with unit latency.
    Graph g(6);
    for (NodeId u = 0; u < 6; ++u) g.add_edge(u, (u + 1) % 6, 1.0);
    return g;
  }

  OverlayNetwork make_net() {
    LogicalGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 0);
    Placement p(4, 6);
    // Slot i -> host i (hosts 4, 5 unused).
    for (SlotId s = 0; s < 4; ++s) p.bind(s, s);
    return OverlayNetwork(std::move(g), std::move(p), oracle_);
  }

  Graph physical_;
  LatencyOracle oracle_;
};

TEST_F(OverlayNetworkTest, SlotLatencyUsesPhysicalShortestPath) {
  auto net = make_net();
  EXPECT_DOUBLE_EQ(net.slot_latency(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(net.slot_latency(0, 3), 3.0);  // ring distance
  EXPECT_DOUBLE_EQ(net.slot_latency(2, 2), 0.0);
}

// The overlay's version is the later of its graph's and placement's, so
// it rises on a mutation of either and holds across queries.
TEST_F(OverlayNetworkTest, VersionFollowsGraphAndPlacement) {
  auto net = make_net();
  const std::uint64_t built = net.version();
  EXPECT_EQ(built, std::max(net.graph().version(), net.placement().version()));
  (void)net.neighbor_latency_sum(0);
  OverlayNetwork::FloodScratch scratch;
  (void)net.flood_latencies_into(scratch, 0);
  EXPECT_EQ(net.version(), built);
  net.swap_hosts(0, 2);
  const std::uint64_t swapped = net.version();
  EXPECT_GT(swapped, built);
  EXPECT_EQ(swapped, net.placement().version());
  net.remove_edge(0, 1);
  const std::uint64_t removed = net.version();
  EXPECT_GT(removed, swapped);
  EXPECT_EQ(removed, net.graph().version());
  net.add_edge(0, 1);
  EXPECT_GT(net.version(), removed);
  const std::uint64_t added = net.version();
  const NodeId host = net.leave(3);
  EXPECT_GT(net.version(), added);
  const std::uint64_t left = net.version();
  net.rejoin(3, host);
  EXPECT_GT(net.version(), left);
  const std::uint64_t rejoined = net.version();
  (void)net.join(4);
  EXPECT_GT(net.version(), rejoined);
}

// Each mutator keeps every stored weight equal to a probe, including a
// swap of two adjacent slots and of slots sharing a neighbour.
TEST_F(OverlayNetworkTest, MutatorsKeepStoredWeights) {
  auto net = make_net();
  const auto expect_fresh = [&net] {
    for (SlotId s = 0; s < net.graph().slot_count(); ++s) {
      const auto neighbors = net.graph().neighbors(s);
      const auto weights = net.neighbor_latencies(s);
      ASSERT_EQ(weights.size(), neighbors.size());
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        EXPECT_EQ(weights[i], net.slot_latency(s, neighbors[i]));
      }
    }
  };
  expect_fresh();
  EXPECT_EQ(net.neighbor_latencies(0)[1], 3.0);  // slot 3, ring distance
  net.swap_hosts(0, 1);  // adjacent
  expect_fresh();
  net.swap_hosts(0, 2);  // both neighbour 1 and 3
  expect_fresh();
  net.remove_edge(1, 2);
  expect_fresh();
  const SlotId fresh = net.join(5);
  net.add_edge(fresh, 1);
  net.add_edge(2, fresh);
  expect_fresh();
  const NodeId host = net.leave(0);
  expect_fresh();
  EXPECT_TRUE(net.neighbor_latencies(0).empty());
  net.rejoin(0, host);
  net.add_edge(0, 2);
  expect_fresh();
  // The weight floor is the lightest physical link.
  EXPECT_EQ(net.min_link_latency(), 1.0);
}

TEST_F(OverlayNetworkTest, NeighborLatencySum) {
  auto net = make_net();
  // Slot 1 neighbors slots 0 and 2 -> hosts 0, 2 at distances 1 and 1.
  EXPECT_DOUBLE_EQ(net.neighbor_latency_sum(1), 2.0);
  // Slot 0 neighbors slots 1 and 3 -> distances 1 and 3.
  EXPECT_DOUBLE_EQ(net.neighbor_latency_sum(0), 4.0);
}

TEST_F(OverlayNetworkTest, AverageLogicalLinkLatency) {
  auto net = make_net();
  // Logical edges: (0,1)=1, (1,2)=1, (2,3)=1, (3,0)=3 -> mean 1.5.
  EXPECT_DOUBLE_EQ(net.average_logical_link_latency(), 1.5);
}

TEST_F(OverlayNetworkTest, RandomWalkRespectsTtlAndNoRevisit) {
  auto net = make_net();
  Rng rng(3);
  std::vector<SlotId> walk;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.random_walk(0, 1, 2, rng, walk));
    EXPECT_EQ(walk.size(), 3u);
    EXPECT_EQ(walk[0], 0u);
    EXPECT_EQ(walk[1], 1u);
    std::set<SlotId> uniq(walk.begin(), walk.end());
    EXPECT_EQ(uniq.size(), walk.size());
  }
}

TEST_F(OverlayNetworkTest, RandomWalkDeadEndReturnsFalse) {
  LogicalGraph g(3);
  g.add_edge(0, 1);  // 1 is a dead end beyond 0
  g.add_edge(0, 2);
  Placement p(3, 6);
  for (SlotId s = 0; s < 3; ++s) p.bind(s, s);
  OverlayNetwork net(std::move(g), std::move(p), oracle_);
  Rng rng(4);
  // Walk 0 -> 1 needs a second hop but 1's only neighbor is visited.
  std::vector<SlotId> walk;
  EXPECT_FALSE(net.random_walk(0, 1, 2, rng, walk));
}

TEST_F(OverlayNetworkTest, FloodLatenciesAreOverlayShortestPaths) {
  auto net = make_net();
  OverlayNetwork::FloodScratch scratch;
  const auto& d = net.flood_latencies_into(scratch, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);  // via slot 1, latency 1+1
  EXPECT_DOUBLE_EQ(d[3], 3.0);  // via slots 1,2 (3 hops of 1) or direct 3
}

TEST_F(OverlayNetworkTest, FloodLatenciesWithProcessingDelay) {
  auto net = make_net();
  const std::vector<double> proc{0.0, 10.0, 0.0, 0.0};
  OverlayNetwork::FloodScratch scratch;
  const auto& d = net.flood_latencies_into(scratch, 0, &proc);
  // 0->1 pays 1 + proc(1)=10; 0->2 via 1 pays 12, via 3: 3+0+1+0=4.
  EXPECT_DOUBLE_EQ(d[1], 11.0);
  EXPECT_DOUBLE_EQ(d[2], 4.0);
}

// The walk algorithm random_walk replaced: visited membership via
// std::find over the path, O(degree * ttl) per step. Kept verbatim as
// the behavioral reference — the epoch-stamped version must draw the
// exact same candidates in the exact same order.
std::optional<std::vector<SlotId>> reference_walk(const OverlayNetwork& net,
                                                  SlotId from,
                                                  SlotId first_hop,
                                                  std::size_t ttl, Rng& rng) {
  std::vector<SlotId> path{from, first_hop};
  path.reserve(ttl + 1);
  std::vector<SlotId> candidates;
  while (path.size() < ttl + 1) {
    const SlotId here = path.back();
    candidates.clear();
    for (const SlotId v : net.graph().neighbors(here)) {
      if (std::find(path.begin(), path.end(), v) == path.end()) {
        candidates.push_back(v);
      }
    }
    if (candidates.empty()) return std::nullopt;
    const SlotId chosen = rng.pick(candidates);
    path.push_back(chosen);
  }
  return path;
}

TEST(RandomWalkRegression, LongTtlMatchesFindBasedReference) {
  auto fx = testing::UnstructuredFixture::make(60, 6001, 4);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const SlotId from = static_cast<SlotId>(seed % 60);
    const auto nbrs = fx.net.graph().neighbors(from);
    ASSERT_FALSE(nbrs.empty());
    const SlotId first_hop = nbrs.front();
    for (const std::size_t ttl : {2, 8, 40}) {
      // Separate generators with the same seed: identical candidate
      // sequences must consume identical draws.
      Rng walk_rng(seed);
      Rng ref_rng(seed);
      std::vector<SlotId> got;
      const bool reached =
          fx.net.random_walk(from, first_hop, ttl, walk_rng, got);
      const auto want = reference_walk(fx.net, from, first_hop, ttl, ref_rng);
      ASSERT_EQ(reached, want.has_value())
          << "seed " << seed << " ttl " << ttl;
      if (reached) {
        EXPECT_EQ(got, *want) << "seed " << seed << " ttl " << ttl;
      }
    }
  }
}

// --------------------------------------------- stored edge weights ----

// neighbor_latency_sum as it was before stored weights: one in-order
// pass of probes.
double fresh_neighbor_sum(const OverlayNetwork& net, SlotId s) {
  double sum = 0.0;
  for (const SlotId v : net.graph().neighbors(s)) {
    sum += net.slot_latency(s, v);
  }
  return sum;
}

/// Drives seeded random mutation sequences through every mutator
/// (swap_hosts, add_edge, remove_edge, leave, rejoin with a new host
/// and with the old one, join) and through whole-overlay copies and
/// assignments, from diverged copies and from stale saved states. After
/// every step each stored weight of the mutated overlay must equal a
/// probe bit for bit, and sums over revisited slots must equal a
/// probing loop. Waxman latencies are fractional, so a weight left in a
/// stale position would differ in its bits, not only a stale host.
class WeightRowSequence {
 public:
  explicit WeightRowSequence(std::uint64_t seed)
      : rng_(seed),
        physical_(make_waxman_graph(kHosts, 0.4, 0.2, 100.0, 0.5, rng_)),
        oracle_(physical_),
        net_(build(rng_)) {}

  /// Runs `steps` mutations, each followed by a full weight check and a
  /// burst of sum queries.
  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      mutate(other_ != nullptr && rng_.uniform(4) == 0 ? *other_ : net_);
      check_weights(net_);
      if (other_ != nullptr) check_weights(*other_);
      for (int q = 0; q < 12; ++q) check_random_slot(net_);
      if (other_ != nullptr) check_random_slot(*other_);
    }
  }

  int checked() const { return checked_; }

 private:
  static constexpr std::size_t kSlots = 40;
  static constexpr std::size_t kHosts = 70;

  OverlayNetwork build(Rng& rng) {
    LogicalGraph g(kSlots);
    for (SlotId s = 0; s < kSlots; ++s) g.add_edge(s, (s + 1) % kSlots);
    for (int e = 0; e < 60; ++e) {
      const auto a = static_cast<SlotId>(rng.uniform(kSlots));
      const auto b = static_cast<SlotId>(rng.uniform(kSlots));
      if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
    }
    Placement p(kSlots, kHosts);
    const auto hosts = rng.sample_indices(kHosts, kSlots);
    for (SlotId s = 0; s < kSlots; ++s) {
      p.bind(s, static_cast<NodeId>(hosts[s]));
    }
    return OverlayNetwork(std::move(g), std::move(p), oracle_);
  }

  void add_random_edge(OverlayNetwork& net) {
    const auto a = static_cast<SlotId>(rng_.uniform(net.graph().slot_count()));
    const auto b = static_cast<SlotId>(rng_.uniform(net.graph().slot_count()));
    const LogicalGraph& g = net.graph();
    if (a != b && g.is_active(a) && g.is_active(b) && !g.has_edge(a, b)) {
      net.add_edge(a, b);
    }
  }

  NodeId free_host(const Placement& p) {
    NodeId h;
    do {
      h = static_cast<NodeId>(rng_.uniform(kHosts));
    } while (p.host_bound(h));
    return h;
  }

  /// Active slot drawn at random, or kInvalidSlot.
  SlotId random_live_slot(const OverlayNetwork& net) {
    const auto slots = net.graph().active_slots();
    if (slots.empty()) return kInvalidSlot;
    return rng_.pick(slots);
  }

  void mutate(OverlayNetwork& net) {
    const LogicalGraph& g = net.graph();
    switch (rng_.uniform(10)) {
      case 0: {  // PROP-G swap
        const SlotId a = random_live_slot(net);
        const SlotId b = random_live_slot(net);
        if (a != b) net.swap_hosts(a, b);
        break;
      }
      case 1: {  // a slot changes host and is rewired as before
        const SlotId s = random_live_slot(net);
        const auto neighbors = g.neighbors(s);
        const std::vector<SlotId> former(neighbors.begin(), neighbors.end());
        const NodeId old_host = net.leave(s);
        net.rejoin(s, rng_.uniform(2) == 0 ? old_host : free_host(
                                                           net.placement()));
        for (const SlotId v : former) net.add_edge(s, v);
        break;
      }
      case 2:
        add_random_edge(net);
        break;
      case 3: {  // drop an edge (swap-with-back reorders the lists)
        const SlotId s = random_live_slot(net);
        if (g.degree(s) > 0) net.remove_edge(s, rng_.pick(g.neighbors(s)));
        break;
      }
      case 4: {  // a peer leaves
        const SlotId s = random_live_slot(net);
        if (g.active_count() > kSlots / 2) net.leave(s);
        break;
      }
      case 5: {  // a departed peer rejoins, or a new one joins
        if (net.placement().bound_count() == kHosts) break;
        SlotId s = kInvalidSlot;
        for (SlotId t = 0; t < g.slot_count(); ++t) {
          if (!g.is_active(t)) s = t;
        }
        const NodeId host = free_host(net.placement());
        if (s != kInvalidSlot && rng_.uniform(2) == 0) {
          net.rejoin(s, host);
        } else {
          s = net.join(host);
        }
        for (int e = 0; e < 3; ++e) {
          const SlotId t = random_live_slot(net);
          if (t != s && !g.has_edge(s, t)) net.add_edge(s, t);
        }
        break;
      }
      case 6:  // a whole-overlay copy that then diverges
        other_ = std::make_unique<OverlayNetwork>(net_);
        break;
      case 7:  // adopt a diverged copy
        if (other_ != nullptr) net_ = *other_;
        break;
      case 8:  // save now, restore later: an older state comes back
        if (saved_ == nullptr || rng_.uniform(2) == 0) {
          saved_ = std::make_unique<OverlayNetwork>(net_);
        } else {
          net_ = *saved_;
        }
        break;
      default:  // a second swap keeps swaps the common mutation
        if (g.active_count() >= 2) {
          const SlotId a = random_live_slot(net);
          const SlotId b = random_live_slot(net);
          if (a != b) net.swap_hosts(a, b);
        }
        break;
    }
  }

  static void check_weights(const OverlayNetwork& net) {
    const LogicalGraph& g = net.graph();
    for (SlotId s = 0; s < g.slot_count(); ++s) {
      const auto neighbors = g.neighbors(s);
      const auto weights = net.neighbor_latencies(s);
      ASSERT_EQ(weights.size(), neighbors.size()) << "slot " << s;
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(weights[i]),
                  std::bit_cast<std::uint64_t>(
                      net.slot_latency(s, neighbors[i])))
            << "slot " << s << " entry " << i;
      }
    }
  }

  void check_random_slot(const OverlayNetwork& net) {
    const SlotId s = random_live_slot(net);
    if (s == kInvalidSlot) return;
    const double want = fresh_neighbor_sum(net, s);
    const double got = net.neighbor_latency_sum(s);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "slot " << s << ": " << got << " vs " << want;
    ++checked_;
  }

  Rng rng_;
  Graph physical_;
  LatencyOracle oracle_;
  OverlayNetwork net_;
  std::unique_ptr<OverlayNetwork> other_;
  std::unique_ptr<OverlayNetwork> saved_;
  int checked_ = 0;
};

TEST(StoredEdgeWeights, MatchProbesUnderRandomMutations) {
  int checked = 0;
  for (std::uint64_t seed = 7001; seed < 7009; ++seed) {
    WeightRowSequence sequence(seed);
    sequence.run(400);
    checked += sequence.checked();
  }
  EXPECT_GE(checked, 8 * 400 * 12);
}

TEST(FloodScratch, ReuseMatchesFreshScratchAcrossSources) {
  auto fx = testing::UnstructuredFixture::make(50, 6002);
  OverlayNetwork::FloodScratch scratch;  // one buffer for every call
  std::vector<double> proc(fx.net.graph().slot_count(), 0.0);
  for (std::size_t s = 0; s < proc.size(); s += 4) proc[s] = 5.0;
  const OverlayNetwork::LinkFilter drop = [](SlotId a, SlotId b) {
    return a % 7 != 0 && b % 7 != 0;
  };
  for (const SlotId src : {SlotId{1}, SlotId{7}, SlotId{23}, SlotId{44}}) {
    OverlayNetwork::FloodScratch fresh;
    EXPECT_EQ(fx.net.flood_latencies_into(fresh, src, &proc),
              fx.net.flood_latencies_into(scratch, src, &proc));
    OverlayNetwork::FloodScratch fresh_filtered;
    EXPECT_EQ(
        fx.net.flood_latencies_into(fresh_filtered, src, nullptr, &drop),
        fx.net.flood_latencies_into(scratch, src, nullptr, &drop));
  }
}

// ------------------------------------------------------------ GraphIo ----

// Edge lists are read back by the lint reader, snapshot_from_edge_list.

TEST(GraphIo, EdgeListRoundTrip) {
  Rng rng(21);
  const Graph g = make_connected_random_graph(30, 70, 2.5, rng);
  const std::string text = graph_to_edge_list(g);
  SnapshotGraph back;
  ASSERT_TRUE(snapshot_from_edge_list(text, back));
  EXPECT_EQ(back.node_count, g.node_count());
  EXPECT_EQ(back.edges, snapshot_of(g).edges);
  // Weights are written at full precision.
  std::istringstream lines(text);
  std::string line;
  std::size_t weighted = 0;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    NodeId u = 0;
    NodeId v = 0;
    double w = 0.0;
    if (!(fields >> u >> v >> w)) continue;  // comment or header
    EXPECT_EQ(w, g.edge_weight(u, v));
    ++weighted;
  }
  EXPECT_EQ(weighted, g.edge_count());
}

TEST(GraphIo, EdgeListParsesCommentsAndBlankLines) {
  SnapshotGraph g;
  ASSERT_TRUE(snapshot_from_edge_list(
      "# header\n\nnodes 3\n0 1 2.5  # inline\n\n1 2 7\n", g));
  EXPECT_EQ(g.node_count, 3u);
  EXPECT_EQ(g.edges, (std::vector<SnapshotGraph::Edge>{{0, 1}, {1, 2}}));
}

TEST(GraphIo, SaveGraphWritesTheEdgeList) {
  Rng rng(22);
  const Graph g = make_connected_random_graph(12, 25, 1.0, rng);
  const std::string path = ::testing::TempDir() + "propsim_graph_io.txt";
  save_graph(g, path);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), graph_to_edge_list(g));
}

// -------------------------------------------------------- Isomorphism ----

TEST(Isomorphism, HostEdgesCanonical) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Placement p(3, 5);
  p.bind(0, 4);
  p.bind(1, 0);
  p.bind(2, 2);
  const auto edges = host_edges(g, p);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (HostEdge{0, 2}));
  EXPECT_EQ(edges[1], (HostEdge{0, 4}));
}

TEST(Isomorphism, SwapYieldsIsomorphicHostGraph) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Placement before(4, 8);
  for (SlotId s = 0; s < 4; ++s) before.bind(s, s);
  Placement after = before;
  after.swap_slots(1, 3);
  const auto [hosts, phi] = placement_bijection(before, after);
  EXPECT_TRUE(isomorphic_via(host_edges(g, before), host_edges(g, after),
                             hosts, phi));
}

TEST(Isomorphism, DetectsNonIsomorphicEdit) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LogicalGraph h = g;
  h.remove_edge(1, 2);
  h.add_edge(0, 2);  // degree sequence changes at slot 1
  Placement p(4, 8);
  for (SlotId s = 0; s < 4; ++s) p.bind(s, s);
  const auto [hosts, phi] = placement_bijection(p, p);
  EXPECT_FALSE(isomorphic_via(host_edges(g, p), host_edges(h, p), hosts, phi));
}

TEST(Isomorphism, IdentityMappingOnUnchangedGraph) {
  Rng rng(5);
  LogicalGraph g(10);
  for (int i = 0; i < 15; ++i) {
    const SlotId a = static_cast<SlotId>(rng.uniform(10));
    SlotId b = static_cast<SlotId>(rng.uniform(9));
    if (b >= a) ++b;
    if (!g.has_edge(a, b)) g.add_edge(a, b);
  }
  Placement p(10, 20);
  for (SlotId s = 0; s < 10; ++s) p.bind(s, s + 5);
  const auto [hosts, phi] = placement_bijection(p, p);
  EXPECT_TRUE(isomorphic_via(host_edges(g, p), host_edges(g, p), hosts, phi));
}

}  // namespace
}  // namespace propsim
