#include <algorithm>

#include <gtest/gtest.h>

#include "chord/chord_ring.h"
#include "fixtures.h"
#include "metrics/convergence.h"
#include "metrics/metrics.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

TEST(Metrics, SampleQueryPairsValid) {
  auto fx = UnstructuredFixture::make(30, 5001);
  Rng rng(1);
  const auto pairs = sample_query_pairs(fx.net.graph(), 100, rng);
  EXPECT_EQ(pairs.size(), 100u);
  for (const QueryPair& q : pairs) {
    EXPECT_NE(q.src, q.dst);
    EXPECT_TRUE(fx.net.graph().is_active(q.src));
    EXPECT_TRUE(fx.net.graph().is_active(q.dst));
  }
}

TEST(Metrics, SampleQueryPairsUnderChurnSkipsInactive) {
  auto fx = UnstructuredFixture::make(40, 5006);
  LogicalGraph& g = fx.net.graph();
  // A burst of departures: every third slot leaves.
  std::vector<SlotId> gone;
  for (SlotId s = 1; s < 40; s += 3) {
    g.deactivate_slot(s);
    gone.push_back(s);
  }
  Rng rng(6);
  const auto pairs = sample_query_pairs(g, 200, rng);
  EXPECT_EQ(pairs.size(), 200u);
  for (const QueryPair& q : pairs) {
    EXPECT_TRUE(g.is_active(q.src));
    EXPECT_TRUE(g.is_active(q.dst));
    EXPECT_FALSE(std::binary_search(gone.begin(), gone.end(), q.src));
    EXPECT_FALSE(std::binary_search(gone.begin(), gone.end(), q.dst));
  }
}

TEST(Metrics, SampleQueryPairsDeterministicAfterRejoin) {
  auto fx = UnstructuredFixture::make(40, 5007);
  LogicalGraph& g = fx.net.graph();
  // Leave/rejoin cycle: 2, 9 and 14 depart; 9 comes back isolated.
  for (const SlotId s : {SlotId{2}, SlotId{9}, SlotId{14}}) {
    g.deactivate_slot(s);
  }
  g.reactivate_slot(9);
  Rng a(7);
  Rng b(7);
  const auto first = sample_query_pairs(g, 300, a);
  const auto second = sample_query_pairs(g, 300, b);
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

TEST(Metrics, AverageRouteLatencyIsMean) {
  const std::vector<QueryPair> pairs{{0, 1}, {1, 2}, {2, 0}};
  double next = 0.0;
  const double avg = average_route_latency(
      pairs, [&](const QueryPair&) { return next += 10.0; });
  EXPECT_DOUBLE_EQ(avg, 20.0);  // (10+20+30)/3
}

TEST(Metrics, StretchRatioComputation) {
  auto fx = UnstructuredFixture::make(30, 5002);
  Rng rng(2);
  const auto pairs = sample_query_pairs(fx.net.graph(), 50, rng);
  // A router that always doubles the direct latency -> stretch 2.
  const auto r = stretch(fx.net, pairs, [&](const QueryPair& q) {
    return 2.0 * fx.net.slot_latency(q.src, q.dst);
  });
  EXPECT_NEAR(r.stretch, 2.0, 1e-9);
  EXPECT_NEAR(r.logical_al, 2.0 * r.physical_al, 1e-9);
}

TEST(Metrics, UnstructuredLookupMatchesPerPairDijkstra) {
  auto fx = UnstructuredFixture::make(40, 5003);
  Rng rng(3);
  const auto pairs = sample_query_pairs(fx.net.graph(), 60, rng);
  const auto grouped = unstructured_lookup_latencies(fx.net, pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto direct = fx.net.flood_latencies(pairs[i].src);
    EXPECT_DOUBLE_EQ(grouped[i], direct[pairs[i].dst]);
  }
}

TEST(Metrics, UnstructuredLookupNeverBeatsDirectLatency) {
  auto fx = UnstructuredFixture::make(40, 5004);
  Rng rng(4);
  const auto pairs = sample_query_pairs(fx.net.graph(), 100, rng);
  const auto lat = unstructured_lookup_latencies(fx.net, pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_GE(lat[i],
              fx.net.slot_latency(pairs[i].src, pairs[i].dst) - 1e-9);
  }
}

TEST(Metrics, ChordRouterEndsAtDestination) {
  Rng rng(5);
  auto fx = UnstructuredFixture::make(40, 5005);
  const auto ring = ChordRing::build_random(40, ChordConfig{}, rng);
  // Reuse the fixture's placement/hosts but the chord logical graph is
  // irrelevant for routing latency: chord_router uses ring + placement.
  const auto router = chord_router(fx.net, ring);
  const auto pairs = sample_query_pairs(fx.net.graph(), 40, rng);
  for (const QueryPair& q : pairs) {
    const double lat = router(q);
    EXPECT_GE(lat, 0.0);
    // Routed latency is at least the direct physical latency.
    EXPECT_GE(lat, fx.net.slot_latency(q.src, q.dst) - 1e-9);
  }
}

TEST(Convergence, SamplesOnSchedule) {
  Scheduler sim;
  double value = 0.0;
  sim.schedule_at(25.0, [&] { value = 7.0; });
  ConvergenceSampler sampler(sim, "metric", 0.0, 100.0, 10.0,
                             [&] { return value; });
  sim.run_all();
  const TimeSeries& ts = sampler.series();
  ASSERT_EQ(ts.size(), 11u);
  EXPECT_DOUBLE_EQ(ts.value_at(20.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(30.0), 7.0);
  EXPECT_DOUBLE_EQ(ts.last_value(), 7.0);
  EXPECT_EQ(ts.name(), "metric");
}

TEST(Convergence, BatchedPrepareRunsOncePerTickBeforeMetrics) {
  Scheduler sim;
  int prepared = 0;
  double base = 0.0;
  sim.schedule_at(15.0, [&] { base = 100.0; });
  std::vector<ConvergenceSampler::NamedMetric> metrics;
  metrics.push_back(
      {"a", [&] { return base + static_cast<double>(prepared); }});
  metrics.push_back({"b", [&] { return 2.0 * base; }});
  ConvergenceSampler sampler(sim, 0.0, 40.0, 10.0, [&] { ++prepared; },
                             std::move(metrics));
  sim.run_all();
  EXPECT_EQ(prepared, 5);  // ticks at 0, 10, 20, 30, 40
  ASSERT_EQ(sampler.series_count(), 2u);
  EXPECT_EQ(sampler.series(0).name(), "a");
  EXPECT_EQ(sampler.series(1).name(), "b");
  // Prepare has already run when metric "a" samples at t=0.
  EXPECT_DOUBLE_EQ(sampler.series(0).value_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sampler.series(0).value_at(20.0), 103.0);
  EXPECT_DOUBLE_EQ(sampler.series(1).last_value(), 200.0);
}

TEST(Convergence, PrepareGuardSkipsPrepareButNeverMetrics) {
  Scheduler sim;
  int prepared = 0;
  int asked = 0;
  std::vector<ConvergenceSampler::NamedMetric> metrics;
  metrics.push_back(
      {"a", [&] { return static_cast<double>(prepared); }});
  ConvergenceSampler sampler(sim, 0.0, 40.0, 10.0, [&] { ++prepared; },
                             std::move(metrics));
  // Allow prepare on every other tick; metrics sample regardless.
  sampler.set_prepare_guard([&] { return (asked++ % 2) == 0; });
  sim.run_all();
  EXPECT_EQ(asked, 5);     // guard consulted every tick (0..40)
  EXPECT_EQ(prepared, 3);  // prepare ran at ticks 0, 20, 40 only
  EXPECT_EQ(sampler.prepared_ticks(), 3u);
  ASSERT_EQ(sampler.series(0).size(), 5u);
  // Samples see the stale prepare state on guarded-off ticks.
  EXPECT_DOUBLE_EQ(sampler.series(0).value_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sampler.series(0).value_at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(sampler.series(0).value_at(20.0), 2.0);
  EXPECT_DOUBLE_EQ(sampler.series(0).value_at(40.0), 3.0);
}

TEST(Convergence, PreparedTicksCountsEveryTickWithoutGuard) {
  Scheduler sim;
  int prepared = 0;
  std::vector<ConvergenceSampler::NamedMetric> metrics;
  metrics.push_back({"a", [&] { return 0.0; }});
  ConvergenceSampler sampler(sim, 0.0, 40.0, 10.0, [&] { ++prepared; },
                             std::move(metrics));
  sim.run_all();
  EXPECT_EQ(prepared, 5);
  EXPECT_EQ(sampler.prepared_ticks(), 5u);
}

TEST(Convergence, InterleavesWithOtherEvents) {
  Scheduler sim;
  int counter = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(i * 10.0 + 5.0, [&] { ++counter; });
  }
  ConvergenceSampler sampler(sim, "count", 0.0, 100.0, 10.0,
                             [&] { return static_cast<double>(counter); });
  sim.run_all();
  // At t=50 exactly 5 increments (5,15,25,35,45) have fired.
  EXPECT_DOUBLE_EQ(sampler.series().value_at(50.0), 5.0);
}

}  // namespace
}  // namespace propsim
