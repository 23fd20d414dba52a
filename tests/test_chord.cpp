#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "chord/chord_ring.h"
#include "common/rng.h"
#include "fixtures.h"
#include "topology/random_graphs.h"

namespace propsim {
namespace {

using testing::run_rule;

// ----------------------------------------------------------- ChordRing ----

class ChordRingTest : public ::testing::Test {
 protected:
  static ChordRing make_ring(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    ChordConfig cfg;
    return ChordRing::build_random(n, cfg, rng);
  }
};

TEST_F(ChordRingTest, IdsAreDistinct) {
  const auto ring = make_ring(100, 1);
  std::set<DhtId> ids;
  for (SlotId s = 0; s < 100; ++s) ids.insert(ring.id_of(s));
  EXPECT_EQ(ids.size(), 100u);
}

TEST_F(ChordRingTest, SuccessorOfMatchesBruteForce) {
  const auto ring = make_ring(64, 2);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const DhtId key = rng.next();
    // Brute force: slot with minimal clockwise distance from key.
    SlotId best = 0;
    DhtId best_dist = clockwise_distance(key, ring.id_of(0));
    for (SlotId s = 1; s < 64; ++s) {
      const DhtId d = clockwise_distance(key, ring.id_of(s));
      if (d < best_dist) {
        best = s;
        best_dist = d;
      }
    }
    EXPECT_EQ(ring.successor_of(key), best);
  }
}

TEST_F(ChordRingTest, OwnIdOwnedBySelf) {
  const auto ring = make_ring(32, 4);
  for (SlotId s = 0; s < 32; ++s) {
    EXPECT_EQ(ring.successor_of(ring.id_of(s)), s);
  }
}

TEST_F(ChordRingTest, RingSuccessorPredecessorInverse) {
  const auto ring = make_ring(40, 5);
  for (SlotId s = 0; s < 40; ++s) {
    EXPECT_EQ(ring.ring_predecessor(ring.ring_successor(s)), s);
    EXPECT_EQ(ring.ring_successor(s, 40), s);  // full loop
  }
}

TEST_F(ChordRingTest, SuccessorListsFollowRingOrder) {
  const auto ring = make_ring(20, 6);
  for (SlotId s = 0; s < 20; ++s) {
    const auto succ = ring.successors(s);
    ASSERT_EQ(succ.size(), ChordRing::kSuccessorList);
    for (std::size_t k = 0; k < succ.size(); ++k) {
      EXPECT_EQ(succ[k], ring.ring_successor(s, k + 1));
    }
  }
}

TEST_F(ChordRingTest, LookupTerminatesAtOwner) {
  const auto ring = make_ring(128, 7);
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    const SlotId src = static_cast<SlotId>(rng.uniform(128));
    const DhtId key = rng.next();
    const auto path = ring.lookup_path(src, key);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), ring.successor_of(key));
  }
}

TEST_F(ChordRingTest, LookupHopsAreLogarithmic) {
  const auto ring = make_ring(256, 9);
  Rng rng(10);
  double total_hops = 0.0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    const SlotId src = static_cast<SlotId>(rng.uniform(256));
    const auto path = ring.lookup_path(src, rng.next());
    total_hops += static_cast<double>(path.size() - 1);
    EXPECT_LE(path.size() - 1, 20u);  // well under the guard, > log2(256)
  }
  EXPECT_LE(total_hops / trials, 10.0);  // ~0.5 * log2(n) expected
}

TEST_F(ChordRingTest, LookupPathMakesClockwiseProgress) {
  const auto ring = make_ring(64, 11);
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    const SlotId src = static_cast<SlotId>(rng.uniform(64));
    const DhtId key = rng.next();
    const auto path = ring.lookup_path(src, key);
    // Intermediate hops strictly approach the key clockwise; the final
    // hop lands on the owner, which sits at-or-past the key, so it is
    // excluded from the monotonicity check.
    for (std::size_t h = 1; h + 1 < path.size(); ++h) {
      EXPECT_LE(clockwise_distance(ring.id_of(path[h]), key),
                clockwise_distance(ring.id_of(path[h - 1]), key));
    }
  }
}

TEST_F(ChordRingTest, BuildWithIdsPreservesIds) {
  const std::vector<DhtId> ids{100, 900, 42, 7000};
  const auto ring = ChordRing::build_with_ids(ids, ChordConfig{});
  for (SlotId s = 0; s < 4; ++s) EXPECT_EQ(ring.id_of(s), ids[s]);
  EXPECT_EQ(ring.successor_of(43), 0u);    // next id >= 43 is 100
  EXPECT_EQ(ring.successor_of(7001), 2u);  // wraps to smallest (42)
}

TEST_F(ChordRingTest, LogicalGraphConnectedAndSymmetric) {
  const auto ring = make_ring(100, 13);
  const LogicalGraph g = ring.to_logical_graph();
  EXPECT_TRUE(g.active_subgraph_connected());
  // Every slot at least links to its successor list.
  EXPECT_GE(g.min_active_degree(), ChordRing::kSuccessorList);
}

TEST_F(ChordRingTest, TinyRingsWork) {
  const auto ring = make_ring(2, 14);
  const auto path = ring.lookup_path(0, ring.id_of(1));
  EXPECT_EQ(path.back(), 1u);
  const LogicalGraph g = ring.to_logical_graph();
  EXPECT_TRUE(g.has_edge(0, 1));
}

// --------------------------------------------- overlay & path latency ----

TEST(ChordOverlay, MakeOverlayBindsHosts) {
  Rng rng(15);
  const Graph phys = make_connected_random_graph(50, 120, 2.0, rng);
  LatencyOracle oracle(phys);
  const auto ring = ChordRing::build_random(20, ChordConfig{}, rng);
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 20; ++h) hosts.push_back(h);
  const OverlayNetwork net = make_chord_overlay(ring, hosts, oracle);
  EXPECT_EQ(net.size(), 20u);
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &net.placement()})
                  .passed());
  EXPECT_TRUE(net.graph().active_subgraph_connected());
}

TEST(ChordOverlay, PathLatencySumsHops) {
  Graph phys(4);
  phys.add_edge(0, 1, 5.0);
  phys.add_edge(1, 2, 7.0);
  phys.add_edge(2, 3, 1.0);
  LatencyOracle oracle(phys);
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Placement p(3, 4);
  p.bind(0, 0);
  p.bind(1, 1);
  p.bind(2, 2);
  OverlayNetwork net(std::move(g), std::move(p), oracle);
  const std::vector<SlotId> path{0, 1, 2};
  EXPECT_DOUBLE_EQ(path_latency(net, path), 12.0);
  const std::vector<double> proc{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(path_latency(net, path, &proc), 17.0);
  const std::vector<SlotId> self{1};
  EXPECT_DOUBLE_EQ(path_latency(net, self), 0.0);
}

// ------------------------------------------------------------- PNS ----

TEST(ChordPns, LookupStillCorrectAfterPns) {
  Rng rng(16);
  const Graph phys = make_connected_random_graph(80, 200, 3.0, rng);
  LatencyOracle oracle(phys);
  ChordConfig cfg;
  cfg.pns_candidates = 4;
  auto ring = ChordRing::build_random(64, cfg, rng);
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 64; ++h) hosts.push_back(h);
  ring.apply_pns(hosts, oracle);
  for (int i = 0; i < 200; ++i) {
    const SlotId src = static_cast<SlotId>(rng.uniform(64));
    const DhtId key = rng.next();
    const auto path = ring.lookup_path(src, key);
    EXPECT_EQ(path.back(), ring.successor_of(key));
    EXPECT_LE(path.size(), 40u);
  }
}

TEST(ChordPns, ReducesAverageFingerLatency) {
  Rng rng(17);
  const Graph phys = make_connected_random_graph(100, 240, 3.0, rng);
  LatencyOracle oracle(phys);
  ChordConfig plain_cfg;
  auto plain = ChordRing::build_random(80, plain_cfg, rng);
  ChordConfig pns_cfg;
  pns_cfg.pns_candidates = 8;
  auto pns = ChordRing::build_with_ids(
      [&] {
        std::vector<DhtId> ids;
        for (SlotId s = 0; s < 80; ++s) ids.push_back(plain.id_of(s));
        return ids;
      }(),
      pns_cfg);
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 80; ++h) hosts.push_back(h);
  pns.apply_pns(hosts, oracle);

  auto avg_finger_latency = [&](const ChordRing& r) {
    double sum = 0.0;
    std::size_t count = 0;
    for (SlotId s = 0; s < 80; ++s) {
      for (const SlotId f : r.fingers(s)) {
        sum += oracle.latency(hosts[s], hosts[f]);
        ++count;
      }
    }
    return sum / static_cast<double>(count);
  };
  EXPECT_LT(avg_finger_latency(pns), avg_finger_latency(plain));
}

}  // namespace
}  // namespace propsim
