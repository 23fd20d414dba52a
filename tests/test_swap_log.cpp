#include <gtest/gtest.h>

#include "core/prop_engine.h"
#include "core/swap_log.h"
#include "fixtures.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

TEST(SwapLog, RecordAndPrune) {
  SwapLog log;
  log.record(10.0, 1, 2);
  log.record(20.0, 3, 4);
  log.record(30.0, 1, 5);
  EXPECT_EQ(log.size(), 3u);
  log.prune(20.0);
  EXPECT_EQ(log.size(), 2u);
  log.prune(100.0);
  EXPECT_EQ(log.size(), 0u);
}

TEST(SwapLog, StaleHopsWithinWindowOnly) {
  SwapLog log;
  log.record(100.0, 2, 7);
  const std::vector<SlotId> path{0, 2, 5};
  // Hop onto slot 2 within the window counts; source never counts.
  EXPECT_EQ(log.stale_hops(path, 105.0, 30.0), 1u);
  // Outside the window: clean.
  EXPECT_EQ(log.stale_hops(path, 200.0, 30.0), 0u);
  // Before the swap even happened: clean.
  EXPECT_EQ(log.stale_hops(path, 99.0, 30.0), 0u);
  // Both counterparts are stale positions.
  const std::vector<SlotId> path2{0, 7, 2};
  EXPECT_EQ(log.stale_hops(path2, 105.0, 30.0), 2u);
  // The source slot being swapped does not count (it routes fresh).
  const std::vector<SlotId> path3{2, 5};
  EXPECT_EQ(log.stale_hops(path3, 105.0, 30.0), 0u);
}

TEST(SwapLog, TransientLatencyAddsCounterpartHop) {
  auto fx = UnstructuredFixture::make(30, 8001);
  SwapLog log;
  const std::vector<SlotId> path{0, 1, 2};
  const double base = path_latency(fx.net, path);
  EXPECT_DOUBLE_EQ(log.transient_path_latency(fx.net, path, 50.0, 30.0),
                   base);
  log.record(40.0, 1, 9);
  const double expected = base + fx.net.slot_latency(1, 9);
  EXPECT_DOUBLE_EQ(log.transient_path_latency(fx.net, path, 50.0, 30.0),
                   expected);
  // Window expired: back to base.
  EXPECT_DOUBLE_EQ(log.transient_path_latency(fx.net, path, 200.0, 30.0),
                   base);
}

TEST(SwapLog, MostRecentSwapWins) {
  auto fx = UnstructuredFixture::make(30, 8002);
  SwapLog log;
  log.record(10.0, 1, 5);
  log.record(20.0, 1, 8);
  const std::vector<SlotId> path{0, 1};
  const double base = path_latency(fx.net, path);
  // Penalty priced against the latest counterpart (slot 8).
  EXPECT_DOUBLE_EQ(log.transient_path_latency(fx.net, path, 25.0, 30.0),
                   base + fx.net.slot_latency(1, 8));
}

TEST(SwapLog, EngineRecordsCommittedSwaps) {
  auto fx = UnstructuredFixture::make(40, 8003);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, params, 3);
  SwapLog log;
  engine.set_swap_log(&log);
  engine.start();
  sim.run_until(1000.0);
  EXPECT_EQ(log.size(), engine.stats().exchanges);
  EXPECT_GT(log.size(), 0u);
}

TEST(SwapLog, PropOExchangesAreNotRecorded) {
  auto fx = UnstructuredFixture::make(40, 8004);
  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropO;
  params.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, params, 4);
  SwapLog log;
  engine.set_swap_log(&log);
  engine.start();
  sim.run_until(1000.0);
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_EQ(log.size(), 0u);  // PROP-O rewires edges; no position swap
}

}  // namespace
}  // namespace propsim
