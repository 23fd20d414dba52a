// Boundary and corner-case suite: minimal populations, degenerate
// configurations and extreme parameters across all modules.
#include <limits>

#include <gtest/gtest.h>

#include "baselines/ltm.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "fixtures.h"
#include "gnutella/flood_search.h"
#include "pastry/pastry.h"
#include "sim/scheduler.h"
#include "topology/transit_stub.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

// ------------------------------------------------------------ topology ----

TEST(EdgeTopology, SingleTransitDomain) {
  TransitStubConfig c;
  c.transit_domains = 1;
  c.transit_nodes_per_domain = 1;
  c.stub_domains_per_transit = 1;
  c.nodes_per_stub = 5;
  Rng rng(1);
  const auto topo = make_transit_stub(c, rng);
  EXPECT_EQ(topo.graph.node_count(), 6u);
  EXPECT_TRUE(topo.graph.is_connected());
  EXPECT_EQ(topo.transit_nodes.size(), 1u);
}

TEST(EdgeTopology, MinimalStubDomains) {
  TransitStubConfig c;
  c.transit_domains = 2;
  c.transit_nodes_per_domain = 1;
  c.stub_domains_per_transit = 1;
  c.nodes_per_stub = 1;  // single-node stub domains
  Rng rng(2);
  const auto topo = make_transit_stub(c, rng);
  EXPECT_TRUE(topo.graph.is_connected());
  for (const NodeId s : topo.stub_nodes) {
    EXPECT_GE(topo.graph.degree(s), 1u);  // the stub-transit uplink
  }
}

TEST(EdgeTopology, ZeroProbabilityExtrasStillConnected) {
  TransitStubConfig c;
  c.transit_domains = 3;
  c.transit_nodes_per_domain = 3;
  c.stub_domains_per_transit = 1;
  c.nodes_per_stub = 6;
  c.transit_edge_probability = 0.0;
  c.stub_edge_probability = 0.0;
  c.extra_interdomain_edges = 0;
  Rng rng(3);
  const auto topo = make_transit_stub(c, rng);
  EXPECT_TRUE(topo.graph.is_connected());  // spanning trees guarantee it
}

// --------------------------------------------------------------- chord ----

TEST(EdgeChord, SuccessorListLargerThanRing) {
  Rng rng(4);
  ChordConfig cfg;
  cfg.successor_list = 100;  // clamps to n-1
  const auto ring = ChordRing::build_random(5, cfg, rng);
  for (SlotId s = 0; s < 5; ++s) {
    EXPECT_EQ(ring.successors(s).size(), 4u);
  }
  EXPECT_EQ(ring.lookup_path(0, ring.id_of(3)).back(), 3u);
}

TEST(EdgeChord, KeyAtExactNodeId) {
  Rng rng(5);
  const auto ring = ChordRing::build_random(16, ChordConfig{}, rng);
  for (SlotId s = 0; s < 16; ++s) {
    // Looking up a node's exact id from anywhere lands on that node.
    EXPECT_EQ(ring.lookup_path((s + 7) % 16, ring.id_of(s)).back(), s);
  }
}

TEST(EdgeChord, ExtremeKeyValues) {
  Rng rng(6);
  const auto ring = ChordRing::build_random(16, ChordConfig{}, rng);
  for (const ChordId key : {ChordId{0}, ~ChordId{0}, ChordId{1}}) {
    const auto path = ring.lookup_path(3, key);
    EXPECT_EQ(path.back(), ring.successor_of(key));
  }
}

// -------------------------------------------------------------- pastry ----

TEST(EdgePastry, LeafHalfBiggerThanRing) {
  Rng rng(7);
  PastryConfig cfg;
  cfg.leaf_set_half = 50;
  const auto net = PastryNetwork::build_random(6, cfg, rng);
  // Clamped to (n-1)/2 per side.
  for (SlotId s = 0; s < 6; ++s) {
    EXPECT_LE(net.leaf_set(s).size(), 5u);
  }
  EXPECT_EQ(net.lookup_path(0, net.id_of(4)).back(), 4u);
}

TEST(EdgePastry, AdjacentIdsRoute) {
  // Ids differing only in the last digit stress the deep table rows.
  std::vector<PastryId> ids;
  for (PastryId i = 0; i < 8; ++i) ids.push_back(0xABCD000000000000ULL + i);
  const auto net = PastryNetwork::build_with_ids(ids, PastryConfig{});
  for (SlotId s = 0; s < 8; ++s) {
    for (SlotId t = 0; t < 8; ++t) {
      EXPECT_EQ(net.lookup_path(s, net.id_of(t)).back(), t);
    }
  }
}

// ----------------------------------------------------------------- can ----

TEST(EdgeCan, TwoZones) {
  Rng rng(8);
  const auto space = CanSpace::build(2, rng);
  EXPECT_TRUE(space.validate());
  EXPECT_EQ(space.neighbors(0).size(), 1u);
  const auto path = space.route_path(0, space.zone(1).center());
  EXPECT_EQ(path.back(), 1u);
}

TEST(EdgeCan, CornerPoints) {
  Rng rng(9);
  const auto space = CanSpace::build(20, rng);
  for (const CanPoint p :
       {CanPoint{0, 0}, CanPoint{kCanSpan - 1, kCanSpan - 1},
        CanPoint{0, kCanSpan - 1}}) {
    const SlotId owner = space.owner_of(p);
    EXPECT_TRUE(space.zone(owner).contains(p));
    EXPECT_EQ(space.route_path(5 % space.size(), p).back(), owner);
  }
}

// ------------------------------------------------------------- engines ----

TEST(EdgeEngine, HugeMinVarMeansNoExchanges) {
  auto fx = UnstructuredFixture::make(30, 9601);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  params.min_var = std::numeric_limits<double>::max();
  PropEngine engine(fx.net, sim, params, 1);
  engine.start();
  sim.run_until(500.0);
  EXPECT_EQ(engine.stats().exchanges, 0u);
  EXPECT_GT(engine.stats().rejected, 0u);
}

TEST(EdgeEngine, TinyOverlayStillRuns) {
  auto fx = UnstructuredFixture::make(5, 9602, /*attach_links=*/3);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 5.0;
  PropEngine engine(fx.net, sim, params, 2);
  engine.start();
  sim.run_until(500.0);
  EXPECT_GT(engine.stats().attempts, 0u);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
}

TEST(EdgeEngine, NhopsLargerThanDiameter) {
  auto fx = UnstructuredFixture::make(12, 9603, /*attach_links=*/3);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 5.0;
  params.nhops = 50;  // walks will mostly dead-end
  PropEngine engine(fx.net, sim, params, 3);
  engine.start();
  sim.run_until(500.0);
  EXPECT_GT(engine.stats().walk_failures, 0u);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
}

TEST(EdgeEngine, StopCancelsEverything) {
  auto fx = UnstructuredFixture::make(20, 9604);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, params, 4);
  engine.start();
  sim.run_until(50.0);
  engine.stop();
  const auto attempts = engine.stats().attempts;
  sim.run_until(1000.0);
  EXPECT_EQ(engine.stats().attempts, attempts);
}

TEST(EdgeLtm, CompleteGraphOnlyCuts) {
  // A logical clique over a line-shaped physical network: LTM should
  // prune long chords without ever disconnecting.
  Graph phys(6);
  for (NodeId u = 0; u + 1 < 6; ++u) phys.add_edge(u, u + 1, 10.0);
  LatencyOracle oracle(phys);
  LogicalGraph g(6);
  for (SlotId a = 0; a < 6; ++a) {
    for (SlotId b = a + 1; b < 6; ++b) g.add_edge(a, b);
  }
  Placement p(6, 6);
  for (SlotId s = 0; s < 6; ++s) p.bind(s, s);
  OverlayNetwork net(std::move(g), std::move(p), oracle);
  LtmParams params;
  for (int round = 0; round < 4; ++round) {
    for (SlotId s = 0; s < 6; ++s) ltm_round(net, s, params);
  }
  EXPECT_TRUE(net.graph().active_subgraph_connected());
  EXPECT_LT(net.graph().edge_count(), 15u);  // clique got pruned
  EXPECT_GE(net.graph().min_active_degree(), params.min_degree);
}

// ---------------------------------------------------------------- misc ----

TEST(EdgeFlood, SingleNodeOverlayFloodsNothing) {
  Graph phys(2);
  phys.add_edge(0, 1, 1.0);
  LatencyOracle oracle(phys);
  LogicalGraph g(1);
  Placement p(1, 2);
  p.bind(0, 0);
  OverlayNetwork net(std::move(g), std::move(p), oracle);
  std::vector<bool> holders{true};
  const auto res = flood_search(net, 0, holders, 5);
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.messages, 0u);
}

TEST(EdgeExchange, SelfExchangeForbidden) {
  auto fx = UnstructuredFixture::make(10, 9605, /*attach_links=*/3);
  // plan_prop_g(u, u) violates its precondition; verify the engine can
  // never produce it by running a long random session.
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 2.0;
  PropEngine engine(fx.net, sim, params, 5);
  engine.start();
  sim.run_until(2000.0);  // PROPSIM_CHECK inside would abort on u == v
  EXPECT_GT(engine.stats().attempts, 100u);
}

}  // namespace
}  // namespace propsim
