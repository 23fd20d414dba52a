#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "baselines/ltm.h"
#include "baselines/pis.h"
#include "baselines/selfish.h"
#include "baselines/topo_can.h"
#include "chord/chord_ring.h"
#include "fixtures.h"
#include "sim/scheduler.h"
#include "workload/host_selection.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

// ----------------------------------------------------------------- LTM ----

TEST(Ltm, RoundPreservesConnectivity) {
  auto fx = UnstructuredFixture::make(50, 4001);
  for (int round = 0; round < 5; ++round) {
    for (const SlotId s : fx.net.graph().active_slots()) {
      ltm_round(fx.net, s);
      ASSERT_TRUE(fx.net.graph().active_subgraph_connected());
    }
  }
}

TEST(Ltm, RespectsMinDegreeFloor) {
  auto fx = UnstructuredFixture::make(50, 4002);
  for (int round = 0; round < 5; ++round) {
    for (const SlotId s : fx.net.graph().active_slots()) {
      ltm_round(fx.net, s);
    }
  }
  EXPECT_GE(fx.net.graph().min_active_degree(), kLtmMinDegree);
}

TEST(Ltm, ReducesAverageLogicalLinkLatency) {
  auto fx = UnstructuredFixture::make(60, 4003);
  const double before = fx.net.average_logical_link_latency();
  for (int round = 0; round < 6; ++round) {
    for (const SlotId s : fx.net.graph().active_slots()) {
      ltm_round(fx.net, s);
    }
  }
  EXPECT_LT(fx.net.average_logical_link_latency(), before);
}

TEST(Ltm, CutsDominatedTriangleEdge) {
  // A logical clique over the physical path 3-0-1-2 (unit links): (0,2)
  // is the longest edge of the triangle 0-1-2, and both its endpoints
  // have degree 3, one above the floor, so the round cuts it. Re-adding
  // it would not beat 0's farthest remaining neighbor.
  Graph phys(4);
  phys.add_edge(3, 0, 1.0);
  phys.add_edge(0, 1, 1.0);
  phys.add_edge(1, 2, 1.0);
  LatencyOracle oracle(phys);
  LogicalGraph g(4);
  for (SlotId a = 0; a < 4; ++a) {
    for (SlotId b = a + 1; b < 4; ++b) g.add_edge(a, b);
  }
  Placement p(4, 4);
  for (SlotId s = 0; s < 4; ++s) p.bind(s, s);
  OverlayNetwork net(std::move(g), std::move(p), oracle);
  EXPECT_EQ(ltm_round(net, 0), 1u);
  EXPECT_FALSE(net.graph().has_edge(0, 2));
  EXPECT_EQ(net.graph().degree(0), kLtmMinDegree);
  EXPECT_TRUE(net.graph().active_subgraph_connected());
}

TEST(Ltm, DoesNotPreserveDegrees) {
  // LTM's defining difference from PROP-O: degree distribution drifts.
  auto fx = UnstructuredFixture::make(60, 4004);
  const auto before = fx.net.graph().degree_multiset();
  for (int round = 0; round < 6; ++round) {
    for (const SlotId s : fx.net.graph().active_slots()) {
      ltm_round(fx.net, s);
    }
  }
  EXPECT_NE(fx.net.graph().degree_multiset(), before);
}

TEST(Ltm, EngineRunsPeriodically) {
  auto fx = UnstructuredFixture::make(40, 4005);
  Scheduler sim;
  LtmEngine engine(fx.net, sim, /*interval_s=*/10.0, 2);
  engine.start();
  sim.run_until(100.0);
  EXPECT_GE(engine.rounds(), 40u * 8u);
  EXPECT_GT(engine.links_changed(), 0u);
  engine.stop();
  const auto rounds = engine.rounds();
  sim.run_until(200.0);
  EXPECT_EQ(engine.rounds(), rounds);
}

// ----------------------------------------------------------------- PIS ----

TEST(Pis, OrderingSortsLandmarksByLatency) {
  Graph phys(4);
  phys.add_edge(0, 1, 1.0);
  phys.add_edge(0, 2, 5.0);
  phys.add_edge(0, 3, 3.0);
  LatencyOracle oracle(phys);
  const std::vector<NodeId> landmarks{1, 2, 3};
  const auto order = landmark_ordering(0, landmarks, oracle);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 1}));
}

TEST(Pis, IdentifiersAreDistinct) {
  Rng rng(3);
  auto fx = UnstructuredFixture::make(40, 4006);
  const auto landmarks = select_landmarks(fx.topo, 3, rng);
  const auto hosts = fx.net.placement().bound_hosts();
  const auto ids = pis_identifiers(hosts, landmarks, fx.oracle, rng);
  std::set<DhtId> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), ids.size());
}

TEST(Pis, RingNeighborsArePhysicallyCloserThanRandom) {
  Rng rng(4);
  auto fx = UnstructuredFixture::make(60, 4007);
  const auto landmarks = select_landmarks(fx.topo, 4, rng);
  const auto hosts = fx.net.placement().bound_hosts();
  const auto pis_ids = pis_identifiers(hosts, landmarks, fx.oracle, rng);

  auto ring_neighbor_latency = [&](const std::vector<DhtId>& ids) {
    const auto ring = ChordRing::build_with_ids(ids, ChordConfig{});
    double sum = 0.0;
    for (SlotId s = 0; s < ring.size(); ++s) {
      sum += fx.oracle.latency(hosts[s], hosts[ring.ring_successor(s)]);
    }
    return sum / static_cast<double>(ring.size());
  };

  std::vector<DhtId> random_ids;
  std::set<DhtId> seen;
  while (random_ids.size() < hosts.size()) {
    const DhtId id = rng.next();
    if (seen.insert(id).second) random_ids.push_back(id);
  }
  EXPECT_LT(ring_neighbor_latency(pis_ids),
            ring_neighbor_latency(random_ids));
}

// ----------------------------------------------------------- Topo-CAN ----

TEST(TopoCan, MortonKeyPreservesProximity) {
  // Nearby points get nearby keys; the far corner gets a far key.
  const CanPoint a{100, 100};
  const CanPoint b{101, 100};
  const CanPoint far{kCanSpan - 1, kCanSpan - 1};
  EXPECT_LT(morton_key(b) - morton_key(a),
            morton_key(far) - morton_key(a));
  EXPECT_EQ(morton_key(CanPoint{0, 0}), 0u);
}

TEST(TopoCan, AssignmentIsPermutationOfHosts) {
  Rng rng(41);
  auto fx = UnstructuredFixture::make(40, 4020);
  const auto space = CanSpace::build(40, rng);
  const auto hosts = fx.net.placement().bound_hosts();
  const auto landmarks = select_landmarks(fx.topo, 3, rng);
  const auto assigned =
      topo_aware_can_assignment(space, hosts, landmarks, fx.oracle, rng);
  ASSERT_EQ(assigned.size(), hosts.size());
  std::set<NodeId> a(assigned.begin(), assigned.end());
  std::set<NodeId> b(hosts.begin(), hosts.end());
  EXPECT_EQ(a, b);
}

TEST(TopoCan, NeighborZonesArePhysicallyCloserThanRandom) {
  Rng rng(43);
  auto fx = UnstructuredFixture::make(60, 4021);
  const auto space = CanSpace::build(60, rng);
  const auto hosts = fx.net.placement().bound_hosts();
  const auto landmarks = select_landmarks(fx.topo, 4, rng);
  const auto topo_hosts =
      topo_aware_can_assignment(space, hosts, landmarks, fx.oracle, rng);

  auto avg_neighbor_latency = [&](std::span<const NodeId> by_slot) {
    double sum = 0.0;
    std::size_t count = 0;
    for (SlotId s = 0; s < space.size(); ++s) {
      for (const SlotId t : space.neighbors(s)) {
        sum += fx.oracle.latency(by_slot[s], by_slot[t]);
        ++count;
      }
    }
    return sum / static_cast<double>(count);
  };
  EXPECT_LT(avg_neighbor_latency(topo_hosts), avg_neighbor_latency(hosts));
}

// ------------------------------------------------------------- Selfish ----

TEST(Selfish, StepImprovesActingNode) {
  auto fx = UnstructuredFixture::make(50, 4008);
  Rng rng(5);
  int rewired = 0;
  for (int i = 0; i < 300 && rewired < 30; ++i) {
    const auto slots = fx.net.graph().active_slots();
    const SlotId u =
        slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    const double before = fx.net.neighbor_latency_sum(u);
    const auto outcome = selfish_step(fx.net, u, rng);
    if (outcome.rewired) {
      ++rewired;
      EXPECT_GT(outcome.gain, 0.0);
      EXPECT_NEAR(fx.net.neighbor_latency_sum(u), before - outcome.gain,
                  1e-9);
    }
  }
  EXPECT_GT(rewired, 0);
}

TEST(Selfish, PreservesOwnDegreeButNotOthers) {
  auto fx = UnstructuredFixture::make(50, 4009);
  Rng rng(6);
  const auto before = fx.net.graph().degree_multiset();
  int rewired = 0;
  for (int i = 0; i < 500 && rewired < 60; ++i) {
    const auto slots = fx.net.graph().active_slots();
    const SlotId u =
        slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    const std::size_t deg_u = fx.net.graph().degree(u);
    if (selfish_step(fx.net, u, rng).rewired) {
      ++rewired;
      EXPECT_EQ(fx.net.graph().degree(u), deg_u);
    }
  }
  ASSERT_GT(rewired, 10);
  EXPECT_NE(fx.net.graph().degree_multiset(), before);
}

TEST(Selfish, RespectsMinDegreeGuard) {
  // Two attach links per joiner: the overlay starts at the guard's degree,
  // so every step meets neighbors the guard protects.
  auto fx = UnstructuredFixture::make(50, 4010, /*attach_links=*/2);
  ASSERT_EQ(fx.net.graph().min_active_degree(), kSelfishMinDegree);
  Rng rng(7);
  int rewired = 0;
  for (int i = 0; i < 400; ++i) {
    const auto slots = fx.net.graph().active_slots();
    const SlotId u =
        slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    if (selfish_step(fx.net, u, rng).rewired) ++rewired;
  }
  EXPECT_GT(rewired, 0);
  EXPECT_GE(fx.net.graph().min_active_degree(), kSelfishMinDegree);
}

}  // namespace
}  // namespace propsim
