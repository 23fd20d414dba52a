// Event-driven lookup traffic: lookups issued as Poisson arrivals on the
// simulated clock, each resolved against the overlay *as it is at that
// instant* — the closest model of the paper's "average lookup latency
// derived from 10,000 lookup operations ... varied according to time".
//
// Snapshot sampling (metrics/convergence.h) asks "how good is the
// overlay right now?" at fixed times; this process asks "what did the
// users actually experience?", including every transient the optimizer
// and churn produce between samples.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/stats.h"
#include "common/timeseries.h"
#include "measure/query.h"
#include "overlay/overlay_network.h"
#include "sim/scheduler.h"

namespace propsim {

struct LookupTrafficParams {
  /// Mean lookup arrivals per second across the whole overlay.
  double rate_per_s = 10.0;
  double start_s = 0.0;
  double end_s = 3600.0;
  /// Completed-lookup latencies are averaged per window of this length
  /// into the observed time series.
  double window_s = 240.0;
};

class LookupTrafficProcess {
 public:
  /// Resolves one query to its latency in ms under the current overlay
  /// state (e.g. a flood first-response or a DHT route). Infinite
  /// results are counted as unreachable, not averaged.
  using ResolveFn = std::function<double(const QueryPair&)>;

  /// `net` provides the live membership for source/destination draws.
  LookupTrafficProcess(OverlayNetwork& net, Scheduler& sim,
                       const LookupTrafficParams& params, ResolveFn resolve,
                       std::uint64_t seed);

  /// Schedules the first arrival and the window-close events.
  void start();

  std::uint64_t issued() const { return issued_; }
  std::uint64_t unreachable() const { return unreachable_; }
  /// Windowed mean experienced latency (one point per closed window
  /// that saw at least one lookup).
  const TimeSeries& observed() const { return observed_; }
  /// All completed-lookup latencies (distribution queries: p50/p95/...).
  const Samples& latencies() const { return latencies_; }

 private:
  void schedule_next();
  void issue_one();
  void close_window();

  OverlayNetwork& net_;
  Scheduler& sim_;
  LookupTrafficParams params_;
  ResolveFn resolve_;
  Rng rng_;
  ActiveSlotCache active_;  // the pool each lookup's endpoints come from
  std::uint64_t issued_ = 0;
  std::uint64_t unreachable_ = 0;
  RunningStats window_;
  TimeSeries observed_{"observed_lookup_ms"};
  Samples latencies_;
};

}  // namespace propsim
