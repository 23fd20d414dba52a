#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "topology/graph.h"
#include "topology/latency_oracle.h"
#include "topology/random_graphs.h"
#include "topology/shortest_path.h"
#include "topology/transit_stub.h"

namespace propsim {
namespace {

// -------------------------------------------------------------- Graph ----

TEST(Graph, AddNodesAndEdges) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 3.0);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, AddNodeGrows) {
  Graph g(1);
  const NodeId n = g.add_node();
  EXPECT_EQ(n, 1u);
  g.add_edge(0, 1, 1.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(g.is_connected());
  EXPECT_EQ(g.reachable_count(0), 2u);
  g.add_edge(1, 2, 1.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, DegreeStatistics) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(0, 3, 3.0);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

// -------------------------------------------------------- TransitStub ----

TEST(TransitStub, NodeCountsMatchConfig) {
  TransitStubConfig c;
  c.transit_domains = 3;
  c.transit_nodes_per_domain = 2;
  c.stub_domains_per_transit = 2;
  c.nodes_per_stub = 5;
  Rng rng(1);
  const auto topo = make_transit_stub(c, rng);
  EXPECT_EQ(topo.graph.node_count(), c.total_nodes());
  EXPECT_EQ(topo.transit_nodes.size(), 6u);
  EXPECT_EQ(topo.stub_nodes.size(), 60u);
  EXPECT_EQ(topo.stub_domain_count, 12u);
  EXPECT_EQ(topo.stub_domain_count, c.stub_domains());
}

TEST(TransitStub, GraphIsConnected) {
  Rng rng(2);
  const auto topo = make_transit_stub(TransitStubConfig::ts_large(), rng);
  EXPECT_TRUE(topo.graph.is_connected());
  // Spec validation sizes stub-domain indices from the config alone.
  EXPECT_EQ(topo.stub_domain_count,
            TransitStubConfig::ts_large().stub_domains());
}

TEST(TransitStub, KindsAreConsistent) {
  Rng rng(3);
  TransitStubConfig c;
  c.transit_domains = 2;
  c.transit_nodes_per_domain = 2;
  c.stub_domains_per_transit = 1;
  c.nodes_per_stub = 4;
  const auto topo = make_transit_stub(c, rng);
  for (const NodeId t : topo.transit_nodes) {
    EXPECT_EQ(topo.kind[t], NodeKind::kTransit);
  }
  for (const NodeId s : topo.stub_nodes) {
    EXPECT_EQ(topo.kind[s], NodeKind::kStub);
  }
  EXPECT_EQ(topo.transit_nodes.size() + topo.stub_nodes.size(),
            topo.graph.node_count());
}

TEST(TransitStub, LatencyClassesRespected) {
  Rng rng(4);
  TransitStubConfig c;
  c.transit_domains = 2;
  c.transit_nodes_per_domain = 3;
  c.stub_domains_per_transit = 2;
  c.nodes_per_stub = 6;
  const auto topo = make_transit_stub(c, rng);
  for (NodeId u = 0; u < topo.graph.node_count(); ++u) {
    for (const Graph::Edge& e : topo.graph.neighbors(u)) {
      const bool ut = topo.kind[u] == NodeKind::kTransit;
      const bool vt = topo.kind[e.to] == NodeKind::kTransit;
      if (ut && vt) {
        EXPECT_DOUBLE_EQ(e.weight, TransitStubConfig::kTransitTransitMs);
      } else if (ut != vt) {
        EXPECT_DOUBLE_EQ(e.weight, TransitStubConfig::kStubTransitMs);
      } else {
        EXPECT_DOUBLE_EQ(e.weight, TransitStubConfig::kStubStubMs);
      }
    }
  }
}

TEST(TransitStub, StubNodesNeverCrossDomains) {
  Rng rng(5);
  TransitStubConfig c;
  c.transit_domains = 2;
  c.transit_nodes_per_domain = 2;
  c.stub_domains_per_transit = 2;
  c.nodes_per_stub = 8;
  const auto topo = make_transit_stub(c, rng);
  for (const NodeId u : topo.stub_nodes) {
    for (const Graph::Edge& e : topo.graph.neighbors(u)) {
      if (topo.kind[e.to] == NodeKind::kStub) {
        EXPECT_EQ(topo.domain[u], topo.domain[e.to]);
      }
    }
  }
}

TEST(TransitStub, PresetsHaveStatedShape) {
  const auto large = TransitStubConfig::ts_large();
  const auto small = TransitStubConfig::ts_small();
  // Similar total size, very different backbone/edge split.
  EXPECT_NEAR(static_cast<double>(large.total_nodes()),
              static_cast<double>(small.total_nodes()),
              0.05 * static_cast<double>(large.total_nodes()));
  EXPECT_GT(large.transit_domains, small.transit_domains);
  EXPECT_LT(large.nodes_per_stub, small.nodes_per_stub);
}

TEST(TransitStub, DeterministicForSeed) {
  Rng r1(99);
  Rng r2(99);
  TransitStubConfig c;
  c.transit_domains = 2;
  c.transit_nodes_per_domain = 2;
  c.stub_domains_per_transit = 1;
  c.nodes_per_stub = 10;
  const auto a = make_transit_stub(c, r1);
  const auto b = make_transit_stub(c, r2);
  ASSERT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (NodeId u = 0; u < a.graph.node_count(); ++u) {
    const auto na = a.graph.neighbors(u);
    const auto nb = b.graph.neighbors(u);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].to, nb[i].to);
    }
  }
}

// ------------------------------------------------------- RandomGraphs ----

TEST(RandomGraphs, ConnectedRandomGraph) {
  Rng rng(6);
  const Graph g = make_connected_random_graph(50, 120, 1.0, rng);
  EXPECT_EQ(g.node_count(), 50u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_GE(g.edge_count(), 49u);
  EXPECT_LE(g.edge_count(), 120u);
}

TEST(RandomGraphs, EdgeCountClampsToComplete) {
  Rng rng(7);
  const Graph g = make_connected_random_graph(5, 1000, 1.0, rng);
  EXPECT_EQ(g.edge_count(), 10u);
}

TEST(RandomGraphs, WaxmanConnectedPositiveWeights) {
  Rng rng(8);
  const Graph g = make_waxman_graph(80, 0.3, 0.4, 100.0, 1.0, rng);
  EXPECT_TRUE(g.is_connected());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Graph::Edge& e : g.neighbors(u)) {
      EXPECT_GE(e.weight, 1.0);
    }
  }
}

TEST(RandomGraphs, Ring) {
  const Graph g = make_ring_graph(6, 2.0);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_TRUE(g.is_connected());
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.degree(u), 2u);
}

// ------------------------------------------------------- ShortestPath ----

TEST(ShortestPath, KnownSmallGraph) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 3, 10.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 5.0);
  const auto d = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
  EXPECT_DOUBLE_EQ(d[3], 4.0);
  EXPECT_DOUBLE_EQ(d[4], 9.0);
}

TEST(ShortestPath, UnreachableIsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto d = dijkstra(g, 0);
  EXPECT_TRUE(std::isinf(d[2]));
}

TEST(ShortestPath, MatchesBruteForceOnRandomGraphs) {
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g(12);
    // Random weighted graph, kept connected with a ring.
    for (NodeId u = 0; u < 12; ++u) {
      g.add_edge(u, (u + 1) % 12, rng.uniform_double(1.0, 10.0));
    }
    for (int extra = 0; extra < 8; ++extra) {
      const NodeId u = static_cast<NodeId>(rng.uniform(12));
      NodeId v = static_cast<NodeId>(rng.uniform(11));
      if (v >= u) ++v;
      if (!g.has_edge(u, v)) g.add_edge(u, v, rng.uniform_double(1.0, 10.0));
    }
    // Bellman-Ford as the reference.
    const NodeId src = static_cast<NodeId>(rng.uniform(12));
    std::vector<double> ref(12, std::numeric_limits<double>::infinity());
    ref[src] = 0.0;
    for (int iter = 0; iter < 12; ++iter) {
      for (NodeId u = 0; u < 12; ++u) {
        for (const Graph::Edge& e : g.neighbors(u)) {
          ref[e.to] = std::min(ref[e.to], ref[u] + e.weight);
        }
      }
    }
    const auto d = dijkstra(g, src);
    for (NodeId u = 0; u < 12; ++u) {
      EXPECT_NEAR(d[u], ref[u], 1e-9);
    }
  }
}

// ------------------------------------------------------ LatencyOracle ----

TEST(LatencyOracle, SymmetricAndZeroDiagonal) {
  Rng rng(10);
  const Graph g = make_connected_random_graph(30, 60, 3.0, rng);
  LatencyOracle oracle(g);
  EXPECT_DOUBLE_EQ(oracle.latency(5, 5), 0.0);
  for (int i = 0; i < 20; ++i) {
    const NodeId a = static_cast<NodeId>(rng.uniform(30));
    const NodeId b = static_cast<NodeId>(rng.uniform(30));
    EXPECT_DOUBLE_EQ(oracle.latency(a, b), oracle.latency(b, a));
  }
}

TEST(LatencyOracle, CachesPerSource) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  LatencyOracle oracle(g);
  EXPECT_EQ(oracle.cached_sources(), 0u);
  oracle.latency(0, 2);
  EXPECT_EQ(oracle.cached_sources(), 1u);
  // Reverse direction reuses the cached row.
  oracle.latency(2, 0);
  EXPECT_EQ(oracle.cached_sources(), 1u);
}

TEST(LatencyOracle, TriangleInequalityHolds) {
  Rng rng(11);
  const Graph g = make_connected_random_graph(25, 50, 2.0, rng);
  LatencyOracle oracle(g);
  for (int i = 0; i < 100; ++i) {
    const NodeId a = static_cast<NodeId>(rng.uniform(25));
    const NodeId b = static_cast<NodeId>(rng.uniform(25));
    const NodeId c = static_cast<NodeId>(rng.uniform(25));
    EXPECT_LE(oracle.latency(a, c),
              oracle.latency(a, b) + oracle.latency(b, c) + 1e-9);
  }
}

}  // namespace
}  // namespace propsim
