// Scheduler determinism contract: events execute in strict (time, id)
// order, where ids grow with every schedule call. A seed-driven
// self-scheduling workload is checked against a brute-force reference
// queue. Basic semantics live in test_sim.cpp.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

TEST(Scheduler, CancelCountsOnceAndPendingDrops) {
  Scheduler sim;
  const EventId id = sim.schedule_in(1.0, [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  sim.run_until(5.0);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.scheduled_events(), 1u);
}

// ------------------------------------------------------ differential fuzz ----

/// Brute-force model of the contract: pending events in a flat list,
/// the next one found by a linear (time, id) scan.
class ReferenceQueue {
 public:
  EventId schedule(double when) {
    pending_.push_back({when, next_id_});
    return next_id_++;
  }
  bool cancel(EventId id) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].second == id) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
  /// Removes and returns the earliest pending (time, id).
  std::pair<double, EventId> pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      if (pending_[i] < pending_[best]) best = i;
    }
    const auto next = pending_[best];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    return next;
  }

 private:
  std::vector<std::pair<double, EventId>> pending_;
  EventId next_id_ = 1;
};

/// Events spawn children (a quarter at zero delay, to stress the FIFO
/// tie-break) and cancel random earlier ids; every execution logs its
/// (time, id). The reference replays the same schedule/cancel calls.
class FuzzWorkload {
 public:
  static constexpr int kMaxEvents = 400;

  FuzzWorkload(Scheduler& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}

  void start(int initial) {
    for (int i = 0; i < initial; ++i) spawn(rng_.uniform_double(0.0, 5.0));
  }

  const std::vector<std::pair<double, EventId>>& log() const { return log_; }
  const std::vector<std::pair<double, EventId>>& expected() const {
    return expected_;
  }

 private:
  void spawn(double delay) {
    ++spawned_;
    const double when = sim_.now() + delay;
    const EventId ref_id = reference_.schedule(when);
    const EventId id =
        sim_.schedule_in(delay, [this, ref_id] { on_event(ref_id); });
    EXPECT_EQ(id, ref_id);
    ids_.push_back(id);
  }

  void on_event(EventId id) {
    expected_.push_back(reference_.pop());
    log_.emplace_back(sim_.now(), id);
    const auto children = rng_.uniform_int(0, 2);
    for (std::int64_t c = 0; c < children && spawned_ < kMaxEvents; ++c) {
      spawn(rng_.bernoulli(0.25) ? 0.0 : rng_.uniform_double(0.0, 2.0));
    }
    if (!ids_.empty() && rng_.bernoulli(0.2)) {
      const auto k = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(ids_.size()) - 1));
      EXPECT_EQ(sim_.cancel(ids_[k]), reference_.cancel(ids_[k]));
    }
  }

  Scheduler& sim_;
  Rng rng_;
  ReferenceQueue reference_;
  std::vector<EventId> ids_;
  std::vector<std::pair<double, EventId>> log_;
  std::vector<std::pair<double, EventId>> expected_;
  int spawned_ = 0;
};

TEST(Scheduler, ExecutionOrderMatchesReferenceUnderFuzz) {
  for (const std::uint64_t seed : {7ULL, 21ULL, 97ULL}) {
    Scheduler sim;
    FuzzWorkload workload(sim, seed);
    workload.start(24);
    sim.run_all();
    ASSERT_GT(sim.executed_events(), 100u) << "seed " << seed;
    EXPECT_EQ(workload.log(), workload.expected()) << "seed " << seed;
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_EQ(sim.executed_events() + sim.cancelled_events(),
              sim.scheduled_events());
  }
}

}  // namespace
}  // namespace propsim
