// Periodic metric sampling on the simulated clock — produces the
// "metric vs time" series the paper's figures plot.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/timeseries.h"
#include "sim/scheduler.h"

namespace propsim {

/// Samples metrics every `interval_s` from t=start_s through t=end_s
/// inclusive (events scheduled up front; the simulator interleaves them
/// with protocol activity). The sampler must outlive the simulation run.
///
/// Two forms:
///  - single metric: one MetricFn, one named series (the historical
///    API);
///  - batched: a `prepare` hook that runs once per tick (capture one
///    OverlaySnapshot, re-materialize slot delays, regenerate queries)
///    followed by several named metrics evaluated against that shared
///    state, each recording into its own series. Batching amortizes the
///    expensive per-tick setup across every metric instead of paying it
///    once per metric.
class ConvergenceSampler {
 public:
  using MetricFn = std::function<double()>;
  using PrepareFn = std::function<void()>;

  struct NamedMetric {
    std::string name;
    MetricFn fn;
  };

  ConvergenceSampler(Scheduler& sim, std::string series_name,
                     double start_s, double end_s, double interval_s,
                     MetricFn metric);

  /// Batched form; `prepare` may be null when the metrics need no shared
  /// per-tick state.
  ConvergenceSampler(Scheduler& sim, double start_s, double end_s,
                     double interval_s, PrepareFn prepare,
                     std::vector<NamedMetric> metrics);

  std::size_t series_count() const { return series_.size(); }
  const TimeSeries& series(std::size_t i = 0) const { return series_[i]; }
  TimeSeries take_series(std::size_t i = 0) {
    return std::move(series_[i]);
  }

 private:
  void schedule(Scheduler& sim, double start_s, double end_s,
                double interval_s);

  std::vector<TimeSeries> series_;  // parallel to metrics_
  PrepareFn prepare_;               // may be null
  std::vector<MetricFn> metrics_;
};

}  // namespace propsim
