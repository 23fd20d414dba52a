// Latency-oracle engine tests: the hierarchical transit-stub engine must
// be bit-exact against full-graph Dijkstra, the fallback's LRU cache must
// honor its bound, and both engines must survive concurrent queries (this
// file runs under the tsan-concurrency preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/rng.h"
#include "common/worker_group.h"
#include "topology/latency_oracle.h"
#include "topology/random_graphs.h"
#include "topology/shortest_path.h"
#include "topology/transit_stub.h"

namespace propsim {
namespace {

/// A small transit-stub instance so per-test Dijkstra baselines stay
/// cheap; the preset-sized equivalence runs sample fewer sources.
TransitStubConfig tiny_ts() {
  TransitStubConfig config;
  config.transit_domains = 3;
  config.transit_nodes_per_domain = 3;
  config.stub_domains_per_transit = 2;
  config.nodes_per_stub = 8;
  return config;
}

// ------------------------------------------------- hierarchical engine ----

TEST(HierarchicalOracle, ExactOnTinyGraphAllPairs) {
  Rng rng(7);
  const TransitStubTopology topo = make_transit_stub(tiny_ts(), rng);
  const LatencyOracle oracle(topo);
  ASSERT_TRUE(oracle.hierarchical());
  EXPECT_EQ(oracle.cached_sources(), 0u);

  const std::size_t n = topo.graph.node_count();
  for (NodeId src = 0; src < n; ++src) {
    const std::vector<double> expected = dijkstra(topo.graph, src);
    for (NodeId dst = 0; dst < n; ++dst) {
      // Bit-exact: GT-ITM latency classes sum to integer-valued doubles.
      ASSERT_EQ(oracle.latency(src, dst), expected[dst])
          << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(HierarchicalOracle, ExactOnPaperPresetsAcrossSeeds) {
  for (const bool small : {false, true}) {
    for (const std::uint64_t seed : {1ull, 20070901ull, 0xdecafbadull}) {
      Rng rng(seed);
      const TransitStubTopology topo = make_transit_stub(
          small ? TransitStubConfig::ts_small() : TransitStubConfig::ts_large(),
          rng);
      const LatencyOracle oracle(topo);
      ASSERT_TRUE(oracle.hierarchical());

      Rng pick(seed ^ 0x5bf03635u);
      for (int s = 0; s < 6; ++s) {
        const NodeId src = pick.pick(s % 2 == 0 ? topo.stub_nodes
                                                : topo.transit_nodes);
        const std::vector<double> expected = dijkstra(topo.graph, src);
        const DistanceRow row = oracle.distances_from(src);
        ASSERT_EQ(row.size(), expected.size());
        for (NodeId dst = 0; dst < expected.size(); ++dst) {
          ASSERT_EQ(row[dst], expected[dst])
              << (small ? "ts-small" : "ts-large") << " seed=" << seed
              << " src=" << src << " dst=" << dst;
        }
      }
    }
  }
}

TEST(HierarchicalOracle, RandomPointQueriesMatchRows) {
  Rng rng(42);
  const TransitStubTopology topo = make_transit_stub(tiny_ts(), rng);
  const LatencyOracle oracle(topo);
  Rng qrng(43);
  for (int i = 0; i < 2000; ++i) {
    const NodeId a = qrng.pick(topo.stub_nodes);
    const NodeId b = qrng.pick(topo.stub_nodes);
    EXPECT_EQ(oracle.latency(a, b), oracle.latency(b, a));
    EXPECT_EQ(oracle.latency(a, b), oracle.distances_from(a)[b]);
  }
  EXPECT_EQ(oracle.latency(5, 5), 0.0);
}

// -------------------------------------------------- fallback LRU cache ----

TEST(FallbackOracle, LruCacheHonorsBound) {
  Rng rng(11);
  const Graph g = make_waxman_graph(200, 0.4, 0.2, 100.0, 1.0, rng);
  LatencyOracleOptions options;
  options.max_cached_rows = 8;
  const LatencyOracle oracle(g, options);
  ASSERT_FALSE(oracle.hierarchical());

  // Query far more distinct sources than the cache holds.
  for (NodeId src = 0; src < 100; ++src) {
    (void)oracle.latency(src, (src + 57) % 200);
    EXPECT_LE(oracle.cached_sources(), 8u);
  }
  EXPECT_LE(oracle.cached_sources(), 8u);
  EXPECT_GT(oracle.cached_sources(), 0u);

  // Evicted rows recompute to the same values.
  const std::vector<double> expected = dijkstra(g, 0);
  const DistanceRow row = oracle.distances_from(0);
  for (NodeId dst = 0; dst < 200; ++dst) EXPECT_EQ(row[dst], expected[dst]);
}

TEST(FallbackOracle, RowSurvivesEviction) {
  Rng rng(12);
  const Graph g = make_waxman_graph(64, 0.4, 0.2, 100.0, 1.0, rng);
  LatencyOracleOptions options;
  options.max_cached_rows = 2;
  const LatencyOracle oracle(g, options);

  const DistanceRow held = oracle.distances_from(0);
  const std::vector<double> expected = dijkstra(g, 0);
  // Push enough other sources through to evict source 0.
  for (NodeId src = 1; src < 32; ++src) (void)oracle.distances_from(src);
  // The held row is shared-ownership: still valid and still correct.
  ASSERT_EQ(held.size(), expected.size());
  for (NodeId dst = 0; dst < held.size(); ++dst) {
    EXPECT_EQ(held[dst], expected[dst]);
  }
}

// ------------------------------------------------------- concurrency ----

TEST(LatencyOracleConcurrency, FallbackParallelQueriesAreConsistent) {
  Rng rng(21);
  const Graph g = make_waxman_graph(128, 0.4, 0.2, 100.0, 1.0, rng);
  LatencyOracleOptions options;
  options.max_cached_rows = 8;  // force eviction races
  const LatencyOracle oracle(g, options);

  // Ground truth before going parallel.
  std::vector<std::vector<double>> truth;
  for (NodeId s = 0; s < 32; ++s) truth.push_back(dijkstra(g, s));

  WorkerGroup group(7);
  std::atomic<int> mismatches{0};
  group.run(512, 1, [&](std::size_t, std::size_t task, std::size_t) {
    const NodeId src = static_cast<NodeId>(task % 32);
    const NodeId dst = static_cast<NodeId>((task * 37) % 32);
    // latency() canonicalizes on the smaller id, so the expected value
    // comes from that row (dijkstra(a)[b] and dijkstra(b)[a] can differ
    // in the last ulp on real-valued weights).
    const NodeId lo = std::min(src, dst);
    const NodeId hi = std::max(src, dst);
    if (oracle.latency(src, dst) != (lo == hi ? 0.0 : truth[lo][hi])) {
      ++mismatches;
    }
    const NodeId far = static_cast<NodeId>((task * 53) % 128);
    const DistanceRow row = oracle.distances_from(src);
    if (row[far] != truth[src][far]) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(oracle.cached_sources(), 8u);
}

TEST(LatencyOracleConcurrency, HierarchicalParallelQueriesAreConsistent) {
  Rng rng(22);
  const TransitStubTopology topo = make_transit_stub(tiny_ts(), rng);
  const LatencyOracle oracle(topo);

  std::vector<std::vector<double>> truth;
  for (NodeId s = 0; s < 16; ++s) truth.push_back(dijkstra(topo.graph, s));

  WorkerGroup group(7);
  std::atomic<int> mismatches{0};
  group.run(1024, 1, [&](std::size_t, std::size_t task, std::size_t) {
    const NodeId src = static_cast<NodeId>(task % 16);
    const NodeId dst =
        static_cast<NodeId>((task * 131) % topo.graph.node_count());
    if (oracle.latency(src, dst) != truth[src][dst]) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace propsim
