#include "sim/scheduler.h"

namespace propsim::sim {

EventId Scheduler::schedule_at(double when, Callback fn) {
  PROPSIM_CHECK(fn != nullptr);
  PROPSIM_CHECK(when >= now_);
  ++scheduled_;
  const EventId id = next_id_++;
  callbacks_.emplace(id, std::move(fn));
  queue_.push(Entry{when, id});
  return id;
}

bool Scheduler::cancel(EventId id) {
  // The heap entry stays behind as a tombstone and is skipped on pop.
  if (callbacks_.erase(id) == 0) return false;
  ++cancelled_;
  return true;
}

bool Scheduler::peek_next(Entry& out) {
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    if (callbacks_.contains(top.id)) {
      out = top;
      return true;
    }
    queue_.pop();  // cancelled tombstone
  }
  return false;
}

bool Scheduler::step() {
  Entry entry;
  if (!peek_next(entry)) return false;
  queue_.pop();
  auto node = callbacks_.extract(entry.id);
  now_ = entry.time;
  ++executed_;
  node.mapped()();
  if (audit_ && executed_ % audit_interval_ == 0) audit_(*this);
  return true;
}

void Scheduler::run_until(double t_end) {
  PROPSIM_CHECK(t_end >= now_);
  Entry entry;
  while (peek_next(entry) && entry.time <= t_end) {
    step();
  }
  now_ = t_end;
}

}  // namespace propsim::sim
