#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "fixtures.h"
#include "gnutella/flood_search.h"
#include "gnutella/gnutella.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;
using testing::run_rule;

TEST(GnutellaBuild, ConnectedWithMinDegree) {
  auto fx = UnstructuredFixture::make(60, 1001, /*attach_links=*/4);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_EQ(fx.net.graph().min_active_degree(), 4u);
  EXPECT_EQ(fx.net.size(), 60u);
}

TEST(GnutellaBuild, PlacementBindsDistinctStubHosts) {
  auto fx = UnstructuredFixture::make(40, 1002);
  const auto hosts = fx.net.placement().bound_hosts();
  std::set<NodeId> uniq(hosts.begin(), hosts.end());
  EXPECT_EQ(uniq.size(), hosts.size());
  for (const NodeId h : hosts) {
    EXPECT_EQ(fx.topo.kind[h], NodeKind::kStub);
  }
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

TEST(GnutellaBuild, PreferentialAttachmentSkewsDegrees) {
  // With a 50% preferential share the max degree should clearly exceed
  // the attach floor (heavy-tailed-ish profile).
  auto fx = UnstructuredFixture::make(80, 1003, /*attach_links=*/3);
  std::size_t max_degree = 0;
  for (const SlotId s : fx.net.graph().active_slots()) {
    max_degree = std::max(max_degree, fx.net.graph().degree(s));
  }
  EXPECT_GE(max_degree, 8u);
}

TEST(GnutellaBuild, DeterministicForSeed) {
  auto a = UnstructuredFixture::make(50, 77);
  auto b = UnstructuredFixture::make(50, 77);
  EXPECT_EQ(a.net.graph().edge_count(), b.net.graph().edge_count());
  EXPECT_EQ(a.net.graph().degree_multiset(), b.net.graph().degree_multiset());
}

TEST(GnutellaJoin, AttachesNewSlot) {
  auto fx = UnstructuredFixture::make(30, 1004);
  GnutellaConfig cfg;
  cfg.attach_links = 3;
  // A stub host not already in the overlay.
  NodeId host = kInvalidNode;
  for (const NodeId h : fx.topo.stub_nodes) {
    if (!fx.net.placement().host_bound(h)) {
      host = h;
      break;
    }
  }
  ASSERT_NE(host, kInvalidNode);
  Rng rng(5);
  const SlotId joiner = gnutella_join(fx.net, cfg, host, rng);
  EXPECT_EQ(fx.net.graph().degree(joiner), 3u);
  EXPECT_EQ(fx.net.placement().host_of(joiner), host);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

TEST(FloodSearch, FindsHolderWithinTtl) {
  auto fx = UnstructuredFixture::make(50, 1005);
  std::vector<bool> holders(fx.net.graph().slot_count(), false);
  holders[10] = true;
  const auto res = flood_search(fx.net, 0, holders, /*ttl=*/10);
  EXPECT_TRUE(res.found);
  EXPECT_GT(res.messages, 0u);
  EXPECT_GE(res.peers_reached, 2u);
  EXPECT_GT(res.first_response_ms, 0.0);
}

TEST(FloodSearch, SourceHoldsObject) {
  auto fx = UnstructuredFixture::make(30, 1006);
  std::vector<bool> holders(fx.net.graph().slot_count(), false);
  holders[3] = true;
  const auto res = flood_search(fx.net, 3, holders, 5);
  EXPECT_TRUE(res.found);
  EXPECT_DOUBLE_EQ(res.first_response_ms, 0.0);
  EXPECT_EQ(res.hops, 0u);
}

TEST(FloodSearch, TtlZeroOnlyChecksSource) {
  auto fx = UnstructuredFixture::make(30, 1007);
  std::vector<bool> holders(fx.net.graph().slot_count(), false);
  holders[7] = true;
  const auto res = flood_search(fx.net, 0, holders, 0);
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.messages, 0u);
}

TEST(FloodSearch, TightTtlCanMiss) {
  auto fx = UnstructuredFixture::make(60, 1008, /*attach_links=*/2);
  // Find a slot at hop distance 3 from source 0: breadth-first, one
  // hop ring at a time.
  const LogicalGraph& g = fx.net.graph();
  std::vector<bool> seen(g.slot_count(), false);
  std::vector<SlotId> ring{0};
  seen[0] = true;
  for (int hop = 1; hop <= 3; ++hop) {
    std::vector<SlotId> next;
    for (const SlotId u : ring) {
      for (const SlotId v : g.neighbors(u)) {
        if (!seen[v]) {
          seen[v] = true;
          next.push_back(v);
        }
      }
    }
    ring.swap(next);
  }
  ASSERT_FALSE(ring.empty());
  const SlotId far = ring.front();
  std::vector<bool> holders(fx.net.graph().slot_count(), false);
  holders[far] = true;
  EXPECT_FALSE(flood_search(fx.net, 0, holders, 1).found);
  EXPECT_TRUE(flood_search(fx.net, 0, holders, 10).found);
}

TEST(FloodSearch, LatencyLowerBoundedByIdealizedFlood) {
  auto fx = UnstructuredFixture::make(50, 1009);
  OverlayNetwork::FloodScratch scratch;
  const auto& ideal = fx.net.flood_latencies_into(scratch, 0);
  std::vector<bool> holders(fx.net.graph().slot_count(), false);
  holders[20] = true;
  const auto res = flood_search(fx.net, 0, holders, 12);
  ASSERT_TRUE(res.found);
  // The hop-wavefront flood can't beat the min-latency overlay path.
  EXPECT_GE(res.first_response_ms, ideal[20] - 1e-9);
}

TEST(FloodSearch, ProcessingDelayAddsUp) {
  auto fx = UnstructuredFixture::make(30, 1010);
  std::vector<bool> holders(fx.net.graph().slot_count(), false);
  holders[5] = true;
  const auto plain = flood_search(fx.net, 0, holders, 10);
  std::vector<double> proc(fx.net.graph().slot_count(), 50.0);
  const auto delayed = flood_search(fx.net, 0, holders, 10, &proc);
  ASSERT_TRUE(plain.found);
  ASSERT_TRUE(delayed.found);
  EXPECT_GT(delayed.first_response_ms, plain.first_response_ms);
}

TEST(FloodSearch, ChargesLookupTraffic) {
  auto fx = UnstructuredFixture::make(30, 1011);
  std::vector<bool> holders(fx.net.graph().slot_count(), false);
  holders[9] = true;
  fx.net.traffic().reset();
  const auto res = flood_search(fx.net, 0, holders, 6);
  EXPECT_EQ(fx.net.traffic().by_kind(MessageKind::kLookup), res.messages);
}

}  // namespace
}  // namespace propsim
