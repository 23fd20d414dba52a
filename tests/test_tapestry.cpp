#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fixtures.h"
#include "tapestry/tapestry.h"
#include "topology/random_graphs.h"

namespace propsim {
namespace {

using testing::run_rule;

class TapestryTest : public ::testing::Test {
 protected:
  static TapestryNetwork make(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return TapestryNetwork::build_random(n, rng);
  }
};

TEST_F(TapestryTest, TableEntriesHaveCorrectPrefixAndDigit) {
  const auto net = make(100, 1);
  for (SlotId s = 0; s < 100; ++s) {
    for (std::size_t level = 0; level < kHexDigits; ++level) {
      for (std::size_t d = 0; d < kHexBase; ++d) {
        const SlotId t = net.table_entry(s, level, d);
        if (t == kInvalidSlot) continue;
        EXPECT_EQ(hex_shared_prefix(net.id_of(s), net.id_of(t)), level);
        EXPECT_EQ(hex_digit(net.id_of(t), level), d);
      }
    }
  }
}

TEST_F(TapestryTest, TablesAreComplete) {
  // Global-knowledge build: a cell is empty iff no eligible node exists.
  const auto net = make(60, 2);
  for (SlotId s = 0; s < 60; ++s) {
    for (std::size_t level = 0; level < 3; ++level) {
      for (std::size_t d = 0; d < kHexBase; ++d) {
        bool exists = false;
        for (SlotId t = 0; t < 60; ++t) {
          if (t != s &&
              hex_shared_prefix(net.id_of(s), net.id_of(t)) == level &&
              hex_digit(net.id_of(t), level) == d) {
            exists = true;
            break;
          }
        }
        EXPECT_EQ(net.table_entry(s, level, d) != kInvalidSlot, exists);
      }
    }
  }
}

TEST_F(TapestryTest, RootIsSourceIndependent) {
  const auto net = make(128, 3);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const DhtId key = rng.next();
    const SlotId root = net.root_of(key);
    for (int src_trial = 0; src_trial < 8; ++src_trial) {
      const SlotId src = static_cast<SlotId>(rng.uniform(128));
      const auto path = net.lookup_path(src, key);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), root) << "key " << key << " from " << src;
    }
  }
}

TEST_F(TapestryTest, OwnIdRootsAtSelf) {
  const auto net = make(64, 5);
  for (SlotId s = 0; s < 64; ++s) {
    EXPECT_EQ(net.root_of(net.id_of(s)), s);
    EXPECT_EQ(net.lookup_path((s + 11) % 64, net.id_of(s)).back(), s);
  }
}

TEST_F(TapestryTest, HopsBoundedByDigits) {
  const auto net = make(512, 6);
  Rng rng(7);
  double total = 0.0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    const SlotId src = static_cast<SlotId>(rng.uniform(512));
    const auto path = net.lookup_path(src, rng.next());
    EXPECT_LE(path.size() - 1, kHexDigits);
    total += static_cast<double>(path.size() - 1);
  }
  // ~log16(512) ≈ 2.25 expected.
  EXPECT_LE(total / trials, 5.0);
}

TEST_F(TapestryTest, SurrogateRoutingOnBoundaryKeys) {
  const auto net = make(64, 8);
  Rng rng(9);
  for (const DhtId key :
       {DhtId{0}, ~DhtId{0}, DhtId{0x8000000000000000},
        DhtId{0x7FFFFFFFFFFFFFFF}}) {
    const SlotId root = net.root_of(key);
    for (int i = 0; i < 8; ++i) {
      const SlotId src = static_cast<SlotId>(rng.uniform(64));
      EXPECT_EQ(net.lookup_path(src, key).back(), root);
    }
  }
}

TEST_F(TapestryTest, LogicalGraphConnected) {
  const auto net = make(100, 11);
  const LogicalGraph g = net.to_logical_graph();
  EXPECT_TRUE(g.active_subgraph_connected());
  EXPECT_GE(g.min_active_degree(), 1u);
}

TEST_F(TapestryTest, DeterministicForSeed) {
  const auto a = make(40, 12);
  const auto b = make(40, 12);
  for (SlotId s = 0; s < 40; ++s) {
    EXPECT_EQ(a.id_of(s), b.id_of(s));
    EXPECT_EQ(a.table_entry(s, 0, 5), b.table_entry(s, 0, 5));
  }
}

TEST_F(TapestryTest, TinyNetwork) {
  const auto net = make(2, 13);
  EXPECT_EQ(net.lookup_path(0, net.id_of(1)).back(), 1u);
  EXPECT_EQ(net.lookup_path(1, net.id_of(0)).back(), 0u);
}

TEST(TapestryProximity, ClosestEntryWinsAndRoutingHolds) {
  Rng rng(14);
  const Graph phys = make_connected_random_graph(120, 300, 3.0, rng);
  LatencyOracle oracle(phys);
  auto net = TapestryNetwork::build_random(100, rng);
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 100; ++h) hosts.push_back(h);

  auto avg_entry_latency = [&] {
    double sum = 0.0;
    std::size_t count = 0;
    for (SlotId s = 0; s < 100; ++s) {
      for (std::size_t level = 0; level < kHexDigits; ++level) {
        for (std::size_t d = 0; d < kHexBase; ++d) {
          const SlotId t = net.table_entry(s, level, d);
          if (t == kInvalidSlot) continue;
          sum += oracle.latency(hosts[s], hosts[t]);
          ++count;
        }
      }
    }
    return sum / static_cast<double>(count);
  };

  const double before = avg_entry_latency();
  net.apply_proximity(hosts, oracle);
  EXPECT_LT(avg_entry_latency(), before);

  // Roots are table-independent; routing still lands on them.
  Rng qrng(15);
  for (int i = 0; i < 150; ++i) {
    const SlotId src = static_cast<SlotId>(qrng.uniform(100));
    const DhtId key = qrng.next();
    EXPECT_EQ(net.lookup_path(src, key).back(), net.root_of(key));
  }
}

TEST(TapestryProximity, LatencyTieGoesToTheLaterCandidate) {
  // Slot 0 (id 0) files slots 1-3 in its cell (level 0, digit 1); slot 2
  // is the id-ring nearest. Host 0 is the hub of a star, so all three
  // candidates are one 5 ms link away: an exact latency tie, which the
  // last candidate in slot order wins.
  const std::vector<DhtId> ids{0, 0x11ULL << 56, 0x10ULL << 56,
                               0x12ULL << 56};
  Graph star(4);
  for (NodeId h = 1; h < 4; ++h) star.add_edge(0, h, 5.0);
  LatencyOracle oracle(star);
  auto net = TapestryNetwork::build_with_ids(ids);
  EXPECT_EQ(net.table_entry(0, 0, 1), 2u);
  const std::vector<NodeId> hosts{0, 1, 2, 3};
  net.apply_proximity(hosts, oracle);
  EXPECT_EQ(net.table_entry(0, 0, 1), 3u);
}

TEST(TapestryOverlay, BindsHosts) {
  Rng rng(16);
  const Graph phys = make_connected_random_graph(60, 140, 2.0, rng);
  LatencyOracle oracle(phys);
  const auto net = TapestryNetwork::build_random(40, rng);
  std::vector<NodeId> hosts;
  for (NodeId h = 0; h < 40; ++h) hosts.push_back(h);
  const OverlayNetwork overlay = make_tapestry_overlay(net, hosts, oracle);
  EXPECT_EQ(overlay.size(), 40u);
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &overlay.placement()})
                  .passed());
  EXPECT_TRUE(overlay.graph().active_subgraph_connected());
}

}  // namespace
}  // namespace propsim
