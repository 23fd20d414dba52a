#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "can/can_space.h"
#include "common/rng.h"
#include "fixtures.h"
#include "topology/random_graphs.h"

namespace propsim {
namespace {

using testing::run_rule;

TEST(CanZone, ContainsAndCenter) {
  CanZone z;
  z.lo = {0, 0};
  z.hi = {100, 200};
  EXPECT_TRUE(z.contains({0, 0}));
  EXPECT_TRUE(z.contains({99, 199}));
  EXPECT_FALSE(z.contains({100, 0}));
  EXPECT_EQ(z.center()[0], 50u);
  EXPECT_EQ(z.center()[1], 100u);
  EXPECT_EQ(z.extent(0), 100u);
}

TEST(CanZone, VolumeFraction) {
  CanZone z;
  z.lo = {0, 0};
  z.hi = {kCanSpan / 2, kCanSpan / 4};
  EXPECT_NEAR(z.volume_fraction(), 0.125, 1e-12);
}

TEST(CanGeometry, TorusDistanceWraps) {
  const CanPoint a{1, 1};
  const CanPoint b{kCanSpan - 1, 1};
  EXPECT_DOUBLE_EQ(torus_distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(torus_distance(a, a), 0.0);
}

TEST(CanGeometry, AdjacencyBasic) {
  CanZone a;
  a.lo = {0, 0};
  a.hi = {100, 100};
  CanZone b;
  b.lo = {100, 0};
  b.hi = {200, 100};
  EXPECT_TRUE(zones_adjacent(a, b));
  EXPECT_TRUE(zones_adjacent(b, a));
  // Corner-touching only: not adjacent.
  CanZone c;
  c.lo = {100, 100};
  c.hi = {200, 200};
  EXPECT_FALSE(zones_adjacent(a, c));
  // Disjoint: not adjacent.
  CanZone d;
  d.lo = {500, 500};
  d.hi = {600, 600};
  EXPECT_FALSE(zones_adjacent(a, d));
}

TEST(CanGeometry, AdjacencyAcrossSeam) {
  CanZone a;
  a.lo = {kCanSpan - 100, 0};
  a.hi = {kCanSpan, kCanSpan};
  CanZone b;
  b.lo = {0, 0};
  b.hi = {100, kCanSpan};
  EXPECT_TRUE(zones_adjacent(a, b));
}

TEST(CanSpaceBuild, TilesAndValidates) {
  Rng rng(1);
  const auto space = CanSpace::build(40, rng);
  EXPECT_EQ(space.size(), 40u);
  EXPECT_TRUE(run_rule("can-tiling", {.can = &space}).passed());
}

TEST(CanSpaceBuild, OwnerIsUnique) {
  Rng rng(2);
  const auto space = CanSpace::build(25, rng);
  Rng probe(3);
  for (int i = 0; i < 200; ++i) {
    CanPoint p{probe.uniform(kCanSpan), probe.uniform(kCanSpan)};
    const SlotId owner = space.owner_of(p);
    std::size_t containing = 0;
    for (SlotId s = 0; s < space.size(); ++s) {
      if (space.zone(s).contains(p)) ++containing;
    }
    EXPECT_EQ(containing, 1u);
    EXPECT_TRUE(space.zone(owner).contains(p));
  }
}

TEST(CanSpaceBuild, NeighborListsSymmetric) {
  Rng rng(4);
  const auto space = CanSpace::build(30, rng);
  for (SlotId a = 0; a < space.size(); ++a) {
    for (const SlotId b : space.neighbors(a)) {
      const auto nb = space.neighbors(b);
      EXPECT_NE(std::find(nb.begin(), nb.end(), a), nb.end());
    }
  }
}

TEST(CanRouting, ReachesOwner) {
  Rng rng(5);
  const auto space = CanSpace::build(60, rng);
  Rng probe(6);
  for (int i = 0; i < 200; ++i) {
    const SlotId src = static_cast<SlotId>(probe.uniform(space.size()));
    CanPoint target{probe.uniform(kCanSpan), probe.uniform(kCanSpan)};
    const auto path = space.route_path(src, target);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), space.owner_of(target));
    // Greedy on zone distance must not revisit zones.
    std::set<SlotId> uniq(path.begin(), path.end());
    EXPECT_EQ(uniq.size(), path.size());
  }
}

TEST(CanRouting, PathLengthScalesAsSqrt) {
  // O(sqrt(n)) expected hops in 2-d CAN: check a generous cap.
  Rng rng(7);
  const auto space = CanSpace::build(100, rng);
  Rng probe(8);
  double total = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const SlotId src = static_cast<SlotId>(probe.uniform(space.size()));
    CanPoint target{probe.uniform(kCanSpan), probe.uniform(kCanSpan)};
    total += static_cast<double>(space.route_path(src, target).size() - 1);
  }
  EXPECT_LE(total / trials, 15.0);
}

TEST(CanLogicalGraph, ConnectedMatchesNeighbors) {
  Rng rng(9);
  const auto space = CanSpace::build(50, rng);
  const LogicalGraph g = space.to_logical_graph();
  EXPECT_TRUE(g.active_subgraph_connected());
  for (SlotId s = 0; s < space.size(); ++s) {
    EXPECT_EQ(g.degree(s), space.neighbors(s).size());
  }
}

TEST(CanOverlay, BindsHostsAndRoutes) {
  Rng rng(10);
  const Graph phys = make_connected_random_graph(60, 140, 2.0, rng);
  LatencyOracle oracle(phys);
  const auto space = CanSpace::build(30, rng);
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 30; ++h) hosts.push_back(h);
  const OverlayNetwork net = make_can_overlay(space, hosts, oracle);
  EXPECT_EQ(net.size(), 30u);
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &net.placement()})
                  .passed());
  // Routed path latency is finite and consistent with slot latencies.
  const auto path = space.route_path(0, CanPoint{kCanSpan / 3, kCanSpan / 2});
  double manual = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    manual += net.slot_latency(path[i - 1], path[i]);
  }
  EXPECT_GE(manual, 0.0);
}

TEST(CanSpaceBuild, DeterministicForSeed) {
  Rng r1(11);
  Rng r2(11);
  const auto a = CanSpace::build(20, r1);
  const auto b = CanSpace::build(20, r2);
  for (SlotId s = 0; s < 20; ++s) {
    EXPECT_EQ(a.zone(s).lo, b.zone(s).lo);
    EXPECT_EQ(a.zone(s).hi, b.zone(s).hi);
  }
}

}  // namespace
}  // namespace propsim
