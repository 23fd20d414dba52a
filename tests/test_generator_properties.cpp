// Statistical property suite for the topology and overlay generators —
// parameterized sweeps asserting the distributional features the
// simulation results depend on (latency mix, degree profiles, balance).
#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "can/can_space.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fixtures.h"
#include "gnutella/gnutella.h"
#include "topology/latency_oracle.h"
#include "topology/random_graphs.h"
#include "topology/transit_stub.h"

namespace propsim {
namespace {

// ---------------------------------------------- transit-stub structure ----

class TransitStubSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(TransitStubSweep, StructureInvariantsAcrossShapes) {
  const auto [domains, per_stub] = GetParam();
  TransitStubConfig c;
  c.transit_domains = domains;
  c.transit_nodes_per_domain = 3;
  c.stub_domains_per_transit = 2;
  c.nodes_per_stub = per_stub;
  Rng rng(1000 + domains * 10 + per_stub);
  const auto topo = make_transit_stub(c, rng);

  EXPECT_TRUE(topo.graph.is_connected());
  EXPECT_EQ(topo.graph.node_count(), c.total_nodes());
  EXPECT_EQ(topo.transit_nodes.size(),
            c.transit_domains * c.transit_nodes_per_domain);
  EXPECT_EQ(topo.stub_domain_count,
            topo.transit_nodes.size() * c.stub_domains_per_transit);

  // Every stub domain hangs off exactly one transit uplink: stub-transit
  // edge count == stub domain count.
  std::size_t uplinks = 0;
  for (const NodeId t : topo.transit_nodes) {
    for (const Graph::Edge& e : topo.graph.neighbors(t)) {
      if (topo.kind[e.to] == NodeKind::kStub) ++uplinks;
    }
  }
  EXPECT_EQ(uplinks, topo.stub_domain_count);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransitStubSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{6}),
                       ::testing::Values(std::size_t{4}, std::size_t{16},
                                         std::size_t{48})),
    [](const auto& info) {
      std::string name = "domains";
      name += std::to_string(std::get<0>(info.param));
      name += "_stub";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(TransitStubLatencies, IntraStubBeatsCrossDomain) {
  // The latency hierarchy the whole paper rests on: two nodes of the
  // same stub domain are much closer than nodes in different transit
  // domains.
  Rng rng(2);
  const auto topo = make_transit_stub(TransitStubConfig::ts_large(), rng);
  LatencyOracle oracle(topo.graph);
  RunningStats same_stub;
  RunningStats cross_domain;
  Rng pick(3);
  for (int i = 0; i < 400; ++i) {
    const NodeId a = topo.stub_nodes[static_cast<std::size_t>(
        pick.uniform(topo.stub_nodes.size()))];
    const NodeId b = topo.stub_nodes[static_cast<std::size_t>(
        pick.uniform(topo.stub_nodes.size()))];
    if (a == b) continue;
    if (topo.domain[a] == topo.domain[b]) {
      same_stub.add(oracle.latency(a, b));
    } else {
      cross_domain.add(oracle.latency(a, b));
    }
  }
  // Cross-domain pairs dominate a random sample; synthesize same-stub
  // pairs directly if the sample missed them.
  if (same_stub.count() < 10) {
    for (const NodeId a : topo.stub_nodes) {
      for (const Graph::Edge& e : topo.graph.neighbors(a)) {
        if (topo.kind[e.to] == NodeKind::kStub &&
            topo.domain[a] == topo.domain[e.to]) {
          same_stub.add(oracle.latency(a, e.to));
        }
      }
      if (same_stub.count() > 200) break;
    }
  }
  ASSERT_GT(same_stub.count(), 9u);
  ASSERT_GT(cross_domain.count(), 50u);
  EXPECT_LT(same_stub.mean() * 3.0, cross_domain.mean());
}

// --------------------------------------------------- degree profiles ----

TEST(GnutellaDegrees, MinAndMeanFollowAttachLinks) {
  auto topo_rng = Rng(4);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), topo_rng);
  LatencyOracle oracle(topo.graph);
  Rng rng(5);
  std::vector<NodeId> hosts;
  const auto idx = rng.sample_indices(topo.stub_nodes.size(), 90);
  for (const auto i : idx) hosts.push_back(topo.stub_nodes[i]);

  GnutellaConfig cfg;
  cfg.attach_links = 3;
  const OverlayNetwork net =
      build_gnutella_overlay(cfg, hosts, oracle, rng);
  EXPECT_EQ(net.graph().min_active_degree(), 3u);
  EXPECT_TRUE(net.graph().active_subgraph_connected());
  // Mean degree is fixed by construction (~2 * attach); the preferential
  // share shapes only the tail.
  EXPECT_NEAR(net.graph().average_active_degree(), 6.0, 0.6);
}

// -------------------------------------------------------- CAN balance ----

TEST(CanBalance, ZoneVolumesStayWithinPolylogSpread) {
  Rng rng(8);
  const auto space = CanSpace::build(256, rng);
  double lo = 1.0;
  double hi = 0.0;
  for (SlotId s = 0; s < space.size(); ++s) {
    const double v = space.zone(s).volume_fraction();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Random-point splitting keeps the max/min volume ratio polylog-ish;
  // 64x is a generous cap that catches broken splitting immediately.
  EXPECT_LT(hi / lo, 64.0);
  // Average degree in 2-d CAN is small and bounded.
  const LogicalGraph g = space.to_logical_graph();
  EXPECT_GT(g.average_active_degree(), 3.0);
  EXPECT_LT(g.average_active_degree(), 10.0);
}

// ------------------------------------------------------ Waxman sweep ----

class WaxmanSweep : public ::testing::TestWithParam<double> {};

TEST_P(WaxmanSweep, DensityGrowsWithBeta) {
  const double beta = GetParam();
  Rng rng(9);
  const Graph g = make_waxman_graph(150, 0.3, beta, 100.0, 1.0, rng);
  EXPECT_TRUE(g.is_connected());
  // Expected edges scale roughly linearly in beta; assert the ordering
  // through a density floor/ceiling per beta value.
  const double density =
      static_cast<double>(g.edge_count()) / static_cast<double>(150);
  if (beta <= 0.11) {
    EXPECT_LT(density, 4.0);
  } else {
    EXPECT_GT(density, 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, WaxmanSweep, ::testing::Values(0.1, 0.6),
                         [](const auto& info) {
                           return "beta" +
                                  std::to_string(static_cast<int>(
                                      info.param * 10));
                         });

}  // namespace
}  // namespace propsim
