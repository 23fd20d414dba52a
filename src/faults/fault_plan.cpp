#include "faults/fault_plan.h"

#include <algorithm>

namespace propsim {

FaultInjector::FaultInjector(Scheduler& sim, const FaultParams& params,
                             std::uint64_t seed)
    : sim_(sim), params_(params), rng_(seed) {
  PROPSIM_CHECK(params_.message_loss >= 0.0 && params_.message_loss < 1.0);
  PROPSIM_CHECK(params_.latency_jitter >= 0.0 &&
                params_.latency_jitter < 1.0);
  PROPSIM_CHECK(params_.crash_per_negotiation >= 0.0 &&
                params_.crash_per_negotiation < 1.0);
  PROPSIM_CHECK(params_.rto_factor > 0.0);
  for (const PartitionWindow& w : params_.partitions) {
    PROPSIM_CHECK(w.end_s > w.start_s);
    PROPSIM_CHECK(w.stub_domain != kPartitionDomainAuto &&
                  "resolve auto partition domains before construction");
  }
  for (const StormWindow& w : params_.storms) {
    PROPSIM_CHECK(w.start_s >= 0.0);
    PROPSIM_CHECK(w.window_s > 0.0);
    PROPSIM_CHECK(w.stub_domain != kPartitionDomainAuto &&
                  "resolve auto storm domains before construction");
  }
  PROPSIM_CHECK(params_.loss_burst_len == 0 || params_.message_loss > 0.0);
}

void FaultInjector::start() {
  for (const PartitionWindow& w : params_.partitions) {
    sim_.schedule_at(w.start_s, [this, domain = w.stub_domain] {
      if (trace_ != nullptr) {
        trace_->emit(obs::TraceEventKind::kPartitionStart, domain);
      }
    });
    sim_.schedule_at(w.end_s, [this, domain = w.stub_domain] {
      if (trace_ != nullptr) {
        trace_->emit(obs::TraceEventKind::kPartitionEnd, domain);
      }
    });
  }
  for (const StormWindow& w : params_.storms) {
    sim_.schedule_at(
        w.start_s,
        [this, domain = w.stub_domain, window = w.window_s] {
          // Victims are enumerated at fire time — PROP-G may have moved
          // hosts since assembly — and fail at evenly spaced offsets, so
          // storms consume no RNG and leave every other stream intact.
          std::vector<SlotId> victims;
          if (storm_enumerator_ && failure_executor_ != nullptr) {
            victims = storm_enumerator_(domain);
          }
          if (trace_ != nullptr) {
            trace_->emit(obs::TraceEventKind::kStormStart, domain, 0, 0.0,
                         victims.size());
          }
          const double spacing =
              window / static_cast<double>(victims.size() + 1);
          for (std::size_t i = 0; i < victims.size(); ++i) {
            const SlotId victim = victims[i];
            const double offset = spacing * static_cast<double>(i + 1);
            sim_.schedule_in(offset, [this, victim] {
              if (failure_executor_ == nullptr) return;
              if (!failure_executor_->fail_slot(victim)) return;
              ++stats_.storm_failures;
              if (trace_ != nullptr) {
                trace_->emit(obs::TraceEventKind::kFaultCrash, victim,
                             victim, 0.0, 1);
              }
            });
          }
        });
    sim_.schedule_at(w.start_s + w.window_s, [this, domain = w.stub_domain] {
      if (trace_ != nullptr) {
        trace_->emit(obs::TraceEventKind::kStormEnd, domain);
      }
    });
  }
}

std::vector<std::uint32_t> FaultInjector::live_partitions() const {
  std::vector<std::uint32_t> live;
  if (host_domain_.empty()) return live;  // windows can't drop anything
  const double now = sim_.now();
  for (const PartitionWindow& w : params_.partitions) {
    if (now >= w.start_s && now < w.end_s) live.push_back(w.stub_domain);
  }
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  return live;
}

bool FaultInjector::partitioned(NodeId a, NodeId b) const {
  if (params_.partitions.empty() || host_domain_.empty()) return false;
  if (a >= host_domain_.size() || b >= host_domain_.size()) return false;
  const double now = sim_.now();
  for (const PartitionWindow& w : params_.partitions) {
    if (now < w.start_s || now >= w.end_s) continue;
    const bool a_inside = host_domain_[a] == w.stub_domain;
    const bool b_inside = host_domain_[b] == w.stub_domain;
    if (a_inside != b_inside) return true;  // crosses the cut gateway
  }
  return false;
}

bool FaultInjector::deliver(NodeId from, NodeId to) {
  ++stats_.messages;
  if (partitioned(from, to)) {
    ++stats_.partition_drops;
    if (trace_ != nullptr) {
      trace_->emit(obs::TraceEventKind::kFaultLoss, from, to, 0.0, 2);
    }
    return false;
  }
  if (params_.message_loss > 0.0) {
    bool lost;
    if (params_.loss_burst_len > 0) {
      // Gilbert–Elliott: lose while the chain is bad, then advance it
      // with one draw. p_enter/p_exit are chosen so the stationary bad
      // fraction equals message_loss and the mean bad dwell time equals
      // loss_burst_len messages.
      lost = burst_bad_;
      const double len = static_cast<double>(params_.loss_burst_len);
      if (burst_bad_) {
        burst_bad_ = !rng_.bernoulli(1.0 / len);
      } else {
        burst_bad_ = rng_.bernoulli(params_.message_loss /
                                    ((1.0 - params_.message_loss) * len));
      }
      if (lost) ++stats_.burst_losses;
    } else {
      lost = rng_.bernoulli(params_.message_loss);
    }
    if (lost) {
      ++stats_.losses;
      if (trace_ != nullptr) {
        trace_->emit(obs::TraceEventKind::kFaultLoss, from, to, 0.0, 1);
      }
      return false;
    }
  }
  return true;
}

double FaultInjector::jitter(double delay_s) {
  if (params_.latency_jitter <= 0.0) return delay_s;
  return delay_s * rng_.uniform_double(1.0, 1.0 + params_.latency_jitter);
}

std::optional<SlotId> FaultInjector::maybe_schedule_crash(SlotId u, SlotId v,
                                                          double window_s) {
  if (params_.crash_per_negotiation <= 0.0 || failure_executor_ == nullptr) {
    return std::nullopt;
  }
  if (!rng_.bernoulli(params_.crash_per_negotiation)) return std::nullopt;
  const SlotId victim = rng_.bernoulli(0.5) ? u : v;
  const SlotId other = victim == u ? v : u;
  const double offset =
      rng_.uniform_double(0.0, std::max(window_s, 1e-9));
  ++stats_.crashes_scheduled;
  sim_.schedule_in(offset, [this, victim, other] {
    if (!failure_executor_->fail_slot(victim)) return;
    ++stats_.crashes_executed;
    if (trace_ != nullptr) {
      trace_->emit(obs::TraceEventKind::kFaultCrash, victim, other);
    }
  });
  return victim;
}

}  // namespace propsim
