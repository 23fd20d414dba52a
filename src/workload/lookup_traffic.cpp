#include "workload/lookup_traffic.h"

#include <cmath>

namespace propsim {

LookupTrafficProcess::LookupTrafficProcess(OverlayNetwork& net,
                                           Scheduler& sim,
                                           const LookupTrafficParams& params,
                                           ResolveFn resolve,
                                           std::uint64_t seed)
    : net_(net),
      sim_(sim),
      params_(params),
      resolve_(std::move(resolve)),
      rng_(seed) {
  PROPSIM_CHECK(params_.rate_per_s > 0.0);
  PROPSIM_CHECK(params_.end_s > params_.start_s);
  PROPSIM_CHECK(params_.window_s > 0.0);
  PROPSIM_CHECK(resolve_ != nullptr);
}

void LookupTrafficProcess::start() {
  sim_.schedule_at(params_.start_s +
                       rng_.exponential(1.0 / params_.rate_per_s),
                   [this] { issue_one(); });
  for (double t = params_.start_s + params_.window_s;
       t <= params_.end_s + 1e-9; t += params_.window_s) {
    sim_.schedule_at(t, [this] { close_window(); });
  }
}

void LookupTrafficProcess::schedule_next() {
  const double next =
      sim_.now() + rng_.exponential(1.0 / params_.rate_per_s);
  if (next > params_.end_s) return;
  sim_.schedule_at(next, [this] { issue_one(); });
}

void LookupTrafficProcess::issue_one() {
  schedule_next();
  const std::span<const SlotId> slots = active_.of(net_.graph());
  if (slots.size() < 2) return;
  QueryPair q;
  q.src = slots[static_cast<std::size_t>(rng_.uniform(slots.size()))];
  do {
    q.dst = slots[static_cast<std::size_t>(rng_.uniform(slots.size()))];
  } while (q.dst == q.src);
  ++issued_;
  const double latency = resolve_(q);
  if (!std::isfinite(latency)) {
    ++unreachable_;
    if (obs::EventBus* bus = net_.trace()) {
      bus->emit(obs::TraceEventKind::kLookup, q.src, q.dst, 0.0,
                /*detail: unreachable=*/1);
    }
    return;
  }
  if (obs::EventBus* bus = net_.trace()) {
    bus->emit(obs::TraceEventKind::kLookup, q.src, q.dst, latency);
  }
  window_.add(latency);
  latencies_.add(latency);
}

void LookupTrafficProcess::close_window() {
  if (window_.count() > 0) {
    observed_.record(sim_.now(), window_.mean());
    window_.reset();
  }
}

}  // namespace propsim
