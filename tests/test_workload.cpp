#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/prop_engine.h"
#include "sim/scheduler.h"
#include "fixtures.h"
#include "workload/churn.h"
#include "workload/heterogeneity.h"
#include "workload/host_selection.h"
#include "workload/lookup_traffic.h"
#include "workload/lookups.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;
using testing::run_rule;

TEST(HostSelection, DistinctStubHosts) {
  Rng rng(1);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  const auto hosts = select_stub_hosts(topo, 30, rng);
  EXPECT_EQ(hosts.size(), 30u);
  std::set<NodeId> uniq(hosts.begin(), hosts.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (const NodeId h : hosts) EXPECT_EQ(topo.kind[h], NodeKind::kStub);
}

TEST(HostSelection, SparesDisjointFromPrimary) {
  Rng rng(2);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  const auto [hosts, spares] =
      select_stub_hosts_with_spares(topo, 20, 10, rng);
  EXPECT_EQ(hosts.size(), 20u);
  EXPECT_EQ(spares.size(), 10u);
  std::set<NodeId> all(hosts.begin(), hosts.end());
  all.insert(spares.begin(), spares.end());
  EXPECT_EQ(all.size(), 30u);
}

TEST(HostSelection, LandmarksAreTransit) {
  Rng rng(3);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  const auto landmarks = select_landmarks(topo, 3, rng);
  for (const NodeId l : landmarks) {
    EXPECT_EQ(topo.kind[l], NodeKind::kTransit);
  }
}

TEST(Heterogeneity, BimodalFractionsRoughlyHold) {
  auto fx = UnstructuredFixture::make(80, 6010);
  Rng rng(4);
  BimodalConfig cfg;
  cfg.fast_fraction = 0.2;
  const auto delays = make_bimodal_delays(fx.net, cfg, rng);
  EXPECT_NEAR(static_cast<double>(delays.fast_count) / 80.0, 0.2, 0.12);
  const auto slot_delay = delays.slot_delays(fx.net);
  const auto slot_fast = delays.slot_fast(fx.net);
  for (std::size_t s = 0; s < slot_delay.size(); ++s) {
    EXPECT_DOUBLE_EQ(slot_delay[s],
                     slot_fast[s] ? cfg.fast_delay_ms : cfg.slow_delay_ms);
  }
}

TEST(Heterogeneity, AlwaysBothKinds) {
  auto fx = UnstructuredFixture::make(10, 6011, /*attach_links=*/3);
  Rng rng(5);
  BimodalConfig cfg;
  cfg.fast_fraction = 0.999;
  const auto delays = make_bimodal_delays(fx.net, cfg, rng);
  EXPECT_GT(delays.fast_count, 0u);
  EXPECT_LT(delays.fast_count, 10u);
}

TEST(Heterogeneity, DegreeCorrelatedMarksHubs) {
  auto fx = UnstructuredFixture::make(80, 6012);
  Rng rng(6);
  BimodalConfig cfg;
  cfg.fast_fraction = 0.2;
  const auto delays = make_bimodal_delays_by_degree(fx.net, cfg, rng);
  const auto fast = delays.slot_fast(fx.net);
  // Every fast slot's degree is >= every slow slot's degree - small tie
  // slack (ties are broken randomly at the boundary degree).
  std::size_t min_fast_degree = static_cast<std::size_t>(-1);
  std::size_t max_slow_degree = 0;
  for (const SlotId s : fx.net.graph().active_slots()) {
    if (fast[s]) {
      min_fast_degree = std::min(min_fast_degree, fx.net.graph().degree(s));
    } else {
      max_slow_degree = std::max(max_slow_degree, fx.net.graph().degree(s));
    }
  }
  EXPECT_GE(min_fast_degree + 1, max_slow_degree);
}

TEST(Heterogeneity, DelaysFollowHostsThroughSwaps) {
  auto fx = UnstructuredFixture::make(40, 6013);
  Rng rng(7);
  BimodalConfig cfg;
  const auto delays = make_bimodal_delays_by_degree(fx.net, cfg, rng);
  const NodeId host_a = fx.net.placement().host_of(0);
  const NodeId host_b = fx.net.placement().host_of(1);
  const auto before = delays.slot_delays(fx.net);
  fx.net.swap_hosts(0, 1);
  const auto after = delays.slot_delays(fx.net);
  EXPECT_DOUBLE_EQ(after[0], delays.host_delay_ms[host_b]);
  EXPECT_DOUBLE_EQ(after[1], delays.host_delay_ms[host_a]);
  EXPECT_DOUBLE_EQ(before[0], delays.host_delay_ms[host_a]);
}

TEST(UniformQueries, Valid) {
  auto fx = UnstructuredFixture::make(30, 5001);
  Rng rng(1);
  const auto pairs = uniform_queries(fx.net.graph(), 100, rng);
  EXPECT_EQ(pairs.size(), 100u);
  for (const QueryPair& q : pairs) {
    EXPECT_NE(q.src, q.dst);
    EXPECT_TRUE(fx.net.graph().is_active(q.src));
    EXPECT_TRUE(fx.net.graph().is_active(q.dst));
  }
}

TEST(UniformQueries, UnderChurnSkipsInactive) {
  auto fx = UnstructuredFixture::make(40, 5006);
  const LogicalGraph& g = fx.net.graph();
  // A burst of departures: every third slot leaves.
  std::vector<SlotId> gone;
  for (SlotId s = 1; s < 40; s += 3) {
    fx.net.leave(s);
    gone.push_back(s);
  }
  Rng rng(6);
  const auto pairs = uniform_queries(g, 200, rng);
  EXPECT_EQ(pairs.size(), 200u);
  for (const QueryPair& q : pairs) {
    EXPECT_TRUE(g.is_active(q.src));
    EXPECT_TRUE(g.is_active(q.dst));
    EXPECT_FALSE(std::binary_search(gone.begin(), gone.end(), q.src));
    EXPECT_FALSE(std::binary_search(gone.begin(), gone.end(), q.dst));
  }
}

TEST(UniformQueries, DeterministicAfterRejoin) {
  auto fx = UnstructuredFixture::make(40, 5007);
  const LogicalGraph& g = fx.net.graph();
  // Leave/rejoin cycle: 2, 9 and 14 depart; 9 comes back isolated.
  NodeId host_of_9 = kInvalidNode;
  for (const SlotId s : {SlotId{2}, SlotId{9}, SlotId{14}}) {
    const NodeId host = fx.net.leave(s);
    if (s == 9) host_of_9 = host;
  }
  fx.net.rejoin(9, host_of_9);
  Rng a(7);
  Rng b(7);
  const auto first = uniform_queries(g, 300, a);
  const auto second = uniform_queries(g, 300, b);
  ASSERT_EQ(first.size(), second.size());
  bool saw_rejoined = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].src, second[i].src);
    EXPECT_EQ(first[i].dst, second[i].dst);
    EXPECT_NE(first[i].src, 2u);
    EXPECT_NE(first[i].dst, 2u);
    EXPECT_NE(first[i].src, 14u);
    EXPECT_NE(first[i].dst, 14u);
    saw_rejoined =
        saw_rejoined || first[i].src == 9u || first[i].dst == 9u;
  }
  // The rejoined slot is sampled again (300 draws over 38 slots).
  EXPECT_TRUE(saw_rejoined);
}

TEST(Lookups, BiasedQueriesHitFastFraction) {
  auto fx = UnstructuredFixture::make(60, 6002);
  Rng rng(7);
  BimodalConfig cfg;
  const auto delays = make_bimodal_delays(fx.net, cfg, rng);
  const auto fast = delays.slot_fast(fx.net);
  for (const double frac : {0.0, 0.5, 1.0}) {
    const auto queries =
        biased_queries(fx.net.graph(), fast, frac, 2000, rng);
    std::size_t fast_hits = 0;
    for (const auto& q : queries) {
      if (fast[q.dst]) ++fast_hits;
    }
    EXPECT_NEAR(static_cast<double>(fast_hits) / 2000.0, frac, 0.05);
  }
}

TEST(Lookups, BiasedQueriesFallBackWhenAClassIsEmpty) {
  // Churn can leave no fast (or no slow) peer; the other class then
  // takes every destination.
  auto fx = UnstructuredFixture::make(30, 6003);
  Rng rng(8);
  for (const bool all_fast : {false, true}) {
    const std::vector<bool> fast(fx.net.graph().slot_count(), all_fast);
    const auto queries = biased_queries(fx.net.graph(), fast, 0.5, 200, rng);
    ASSERT_EQ(queries.size(), 200u);
    for (const auto& q : queries) EXPECT_NE(q.src, q.dst);
  }
}

// ------------------------------------------------------ LookupTraffic ----

TEST(LookupTraffic, IssuesAtConfiguredRate) {
  auto fx = UnstructuredFixture::make(30, 6020);
  Scheduler sim;
  LookupTrafficParams params;
  params.rate_per_s = 5.0;
  params.start_s = 0.0;
  params.end_s = 400.0;
  params.window_s = 100.0;
  LookupTrafficProcess traffic(
      fx.net, sim, params,
      [&](const QueryPair& q) { return fx.net.slot_latency(q.src, q.dst); },
      18);
  traffic.start();
  sim.run_until(500.0);
  // Poisson with mean 2000 arrivals; a wide tolerance avoids flakiness.
  EXPECT_GT(traffic.issued(), 1600u);
  EXPECT_LT(traffic.issued(), 2400u);
  EXPECT_EQ(traffic.unreachable(), 0u);
  EXPECT_EQ(traffic.observed().size(), 4u);
  EXPECT_GT(traffic.latencies().count(), 0u);
}

TEST(LookupTraffic, ObservesOptimizationImprovement) {
  auto fx = UnstructuredFixture::make(60, 6021);
  Scheduler sim;
  PropParams pparams;
  pparams.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, pparams, 19);

  LookupTrafficParams params;
  params.rate_per_s = 8.0;
  params.end_s = 2000.0;
  params.window_s = 200.0;
  LookupTrafficProcess traffic(
      fx.net, sim, params,
      [&, scratch = OverlayNetwork::FloodScratch{}](
          const QueryPair& q) mutable {
        // First-response flood latency under the *current* topology.
        return fx.net.flood_latencies_into(scratch, q.src)[q.dst];
      },
      20);
  engine.start();
  traffic.start();
  sim.run_until(2000.0);
  ASSERT_GE(traffic.observed().size(), 5u);
  // Users in the last window experienced better latency than the first.
  EXPECT_LT(traffic.observed().last_value(),
            traffic.observed().first_value());
  // The distribution is queryable.
  EXPECT_GE(traffic.latencies().quantile(0.95),
            traffic.latencies().median());
}

TEST(LookupTraffic, CountsUnreachable) {
  auto fx = UnstructuredFixture::make(20, 6022);
  Scheduler sim;
  LookupTrafficParams params;
  params.rate_per_s = 2.0;
  params.end_s = 100.0;
  LookupTrafficProcess traffic(
      fx.net, sim, params,
      [](const QueryPair&) {
        return std::numeric_limits<double>::infinity();
      },
      21);
  traffic.start();
  sim.run_until(200.0);
  EXPECT_GT(traffic.issued(), 0u);
  EXPECT_EQ(traffic.unreachable(), traffic.issued());
}

// -------------------------------------------------------------- Churn ----

TEST(Churn, JoinAddsConnectedPeer) {
  auto fx = UnstructuredFixture::make(30, 6003);
  Scheduler sim;
  GnutellaConfig gcfg;
  gcfg.attach_links = 3;
  ChurnParams params;
  std::vector<NodeId> spares;
  for (const NodeId h : fx.topo.stub_nodes) {
    if (!fx.net.placement().host_bound(h) && spares.size() < 5) {
      spares.push_back(h);
    }
  }
  ChurnProcess churn(fx.net, sim, nullptr, gcfg, params, spares, 8);
  const std::size_t before = fx.net.size();
  EXPECT_TRUE(churn.do_join());
  EXPECT_EQ(fx.net.size(), before + 1);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

TEST(Churn, LeaveKeepsConnectivity) {
  auto fx = UnstructuredFixture::make(40, 6004);
  Scheduler sim;
  GnutellaConfig gcfg;
  ChurnParams params;
  ChurnProcess churn(fx.net, sim, nullptr, gcfg, params, {}, 9);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(churn.do_leave());
    ASSERT_TRUE(fx.net.graph().active_subgraph_connected());
    ASSERT_TRUE(run_rule("placement-bijection",
                         {.placement = &fx.net.placement()})
                    .passed());
  }
  EXPECT_EQ(fx.net.size(), 30u);
}

TEST(Churn, LeaveRefusesBelowMinPopulation) {
  // One peer above the floor may leave or crash; at the floor neither can.
  auto fx = UnstructuredFixture::make(ChurnProcess::kMinPopulation + 1, 6005,
                                      /*attach_links=*/3);
  Scheduler sim;
  GnutellaConfig gcfg;
  ChurnParams params;
  ChurnProcess churn(fx.net, sim, nullptr, gcfg, params, {}, 10);
  ASSERT_TRUE(churn.do_leave());
  EXPECT_EQ(fx.net.size(), ChurnProcess::kMinPopulation);
  EXPECT_FALSE(churn.do_leave());
  EXPECT_FALSE(churn.do_fail());
  EXPECT_EQ(fx.net.size(), ChurnProcess::kMinPopulation);
}

TEST(Churn, DepartedHostsAreReusedForJoins) {
  auto fx = UnstructuredFixture::make(30, 6006);
  Scheduler sim;
  GnutellaConfig gcfg;
  ChurnParams params;
  ChurnProcess churn(fx.net, sim, nullptr, gcfg, params, {}, 11);
  ASSERT_TRUE(churn.do_leave());
  ASSERT_TRUE(churn.do_join());  // only possible via the recycled host
  EXPECT_EQ(fx.net.size(), 30u);
  EXPECT_EQ(churn.joins(), 1u);
  EXPECT_EQ(churn.leaves(), 1u);
}

TEST(Churn, SuddenFailureRepairsOverlay) {
  auto fx = UnstructuredFixture::make(40, 6008);
  Scheduler sim;
  GnutellaConfig gcfg;
  gcfg.attach_links = 3;
  ChurnParams params;
  ChurnProcess churn(fx.net, sim, nullptr, gcfg, params, {}, 14);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(churn.do_fail());
    ASSERT_TRUE(fx.net.graph().active_subgraph_connected());
    ASSERT_TRUE(run_rule("placement-bijection",
                         {.placement = &fx.net.placement()})
                    .passed());
    // Survivors never end below the attach floor.
    for (const SlotId s : fx.net.graph().active_slots()) {
      EXPECT_GE(fx.net.graph().degree(s), 1u);
    }
  }
  EXPECT_EQ(churn.failures(), 12u);
  EXPECT_EQ(fx.net.size(), 28u);
  EXPECT_GT(churn.repair_links(), 0u);
}

TEST(Churn, FailureNotifiesEngine) {
  auto fx = UnstructuredFixture::make(40, 6009);
  Scheduler sim;
  PropParams pparams;
  pparams.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, pparams, 15);
  engine.start();
  GnutellaConfig gcfg;
  gcfg.attach_links = 3;
  ChurnParams params;
  ChurnProcess churn(fx.net, sim, &engine, gcfg, params, {}, 16);
  ASSERT_TRUE(churn.do_fail());
  // Repaired edges appear at the front of both endpoints' queues; just
  // assert the engine keeps running coherently afterwards.
  sim.run_until(500.0);
  EXPECT_GT(engine.stats().attempts, 0u);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
}

TEST(Churn, FirstEventRespectsEndTime) {
  // A tiny rate draws a first arrival far beyond the churn window;
  // start() must not schedule it at all (the old behavior fired one
  // event past end_s, perturbing post-window runs).
  auto fx = UnstructuredFixture::make(40, 6020);
  Scheduler sim;
  GnutellaConfig gcfg;
  ChurnParams params;
  params.join_rate_per_s = 0.0005;  // mean inter-arrival 2000 s
  params.leave_rate_per_s = 0.0005;
  params.fail_rate_per_s = 0.0005;
  params.start_s = 0.0;
  params.end_s = 5.0;
  ChurnProcess churn(fx.net, sim, nullptr, gcfg, params, {}, 6021);
  churn.start();
  sim.run_until(20000.0);
  EXPECT_EQ(churn.joins() + churn.leaves() + churn.failures(), 0u);
}

TEST(Churn, ScheduledFailuresInterleave) {
  auto fx = UnstructuredFixture::make(60, 6014);
  Scheduler sim;
  GnutellaConfig gcfg;
  ChurnParams params;
  params.join_rate_per_s = 0.0;
  params.leave_rate_per_s = 0.0;
  params.fail_rate_per_s = 0.05;
  params.start_s = 0.0;
  params.end_s = 400.0;
  ChurnProcess churn(fx.net, sim, nullptr, gcfg, params, {}, 17);
  churn.start();
  sim.run_until(600.0);
  EXPECT_GT(churn.failures(), 5u);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
}

TEST(Churn, ScheduledProcessRunsWithEngine) {
  auto fx = UnstructuredFixture::make(50, 6007);
  Scheduler sim;
  PropParams pparams;
  pparams.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, pparams, 12);
  engine.start();

  GnutellaConfig gcfg;
  ChurnParams params;
  params.join_rate_per_s = 0.05;
  params.leave_rate_per_s = 0.05;
  params.start_s = 0.0;
  params.end_s = 500.0;
  std::vector<NodeId> spares;
  for (const NodeId h : fx.topo.stub_nodes) {
    if (!fx.net.placement().host_bound(h) && spares.size() < 20) {
      spares.push_back(h);
    }
  }
  ChurnProcess churn(fx.net, sim, &engine, gcfg, params, spares, 13);
  churn.start();
  sim.run_until(800.0);
  EXPECT_GT(churn.joins() + churn.leaves(), 5u);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
  EXPECT_GT(engine.stats().attempts, 0u);
}

}  // namespace
}  // namespace propsim
