// Discrete-event scheduler: the simulator's one event loop.
//
// Protocol actions (probes, exchanges, churn arrivals) are callbacks
// scheduled on a simulated clock measured in seconds. A single binary
// heap orders events by (time, id); ids grow with every schedule, so
// events at equal times fire in scheduling order. That strict total
// order is what keeps runs deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace propsim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

namespace sim {

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Verification hook: `fn` runs after every `every_n_events` executed
  /// events (and sees the post-event state). One hook at a time; pass a
  /// null fn to uninstall. Used by the paranoid invariant audit
  /// (analysis/invariant_checker.h) and by tests.
  using AuditHook = std::function<void(const Scheduler&)>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  double now() const { return now_; }
  std::size_t pending_events() const { return callbacks_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  std::uint64_t scheduled_events() const { return scheduled_; }
  std::uint64_t cancelled_events() const { return cancelled_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(double delay, Callback fn) {
    PROPSIM_CHECK(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `when` (>= now).
  EventId schedule_at(double when, Callback fn);

  /// Cancels a pending event; returns false if it already ran or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Runs events until the queue empties or the clock passes `t_end`;
  /// afterwards now() == max(now, t_end).
  void run_until(double t_end);

  /// Runs every pending event (the event set must be finite).
  void run_all() {
    while (step()) {
    }
  }

  /// Executes the single earliest event; returns false if none pending.
  bool step();

  void set_audit(AuditHook fn, std::uint64_t every_n_events) {
    PROPSIM_CHECK(fn == nullptr || every_n_events > 0);
    audit_ = std::move(fn);
    audit_interval_ = every_n_events;
  }

 private:
  struct Entry {
    double time;
    EventId id;  // doubles as a tie-breaking sequence number
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  /// Pops heap entries until one with a live callback surfaces.
  bool peek_next(Entry& out);

  double now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  AuditHook audit_;
  std::uint64_t audit_interval_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  // det-ok(D1): looked up by EventId on pop/cancel only; never iterated
  std::unordered_map<EventId, Callback> callbacks_;
};

}  // namespace sim

using sim::Scheduler;

}  // namespace propsim
