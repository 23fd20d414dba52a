#include <vector>

#include <gtest/gtest.h>

#include "sim/scheduler.h"
#include "sim/traffic.h"

namespace propsim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(9.0, [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Scheduler, EqualTimesFireInScheduleOrder) {
  Scheduler sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports failure
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterExecutionReturnsFalse) {
  Scheduler sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.schedule_at(3.0, [&] { ++count; });
  sim.run_until(2.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Scheduler, StepExecutesOne) {
  Scheduler sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Scheduler, PendingCountsExcludeCancelled) {
  Scheduler sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(TrafficCounter, CountsByNodeAndKind) {
  TrafficCounter t(4);
  t.count(0, MessageKind::kWalk, 2);
  t.count(1, MessageKind::kProbe);
  t.count(0, MessageKind::kLookup, 5);
  EXPECT_EQ(t.total(), 8u);
  EXPECT_EQ(t.by_node(0), 7u);
  EXPECT_EQ(t.by_node(1), 1u);
  EXPECT_EQ(t.by_kind(MessageKind::kWalk), 2u);
  EXPECT_EQ(t.by_kind(MessageKind::kLookup), 5u);
  EXPECT_EQ(t.control_total(), 3u);
}

TEST(TrafficCounter, ResetClearsEverything) {
  TrafficCounter t(2);
  t.count(0, MessageKind::kNotify, 3);
  t.reset();
  EXPECT_EQ(t.total(), 0u);
  EXPECT_EQ(t.by_node(0), 0u);
  EXPECT_EQ(t.by_kind(MessageKind::kNotify), 0u);
}

}  // namespace
}  // namespace propsim
