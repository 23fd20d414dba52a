#include "metrics/convergence.h"

#include "common/check.h"

namespace propsim {

ConvergenceSampler::ConvergenceSampler(Scheduler& sim,
                                       std::string series_name,
                                       double start_s, double end_s,
                                       double interval_s, MetricFn metric) {
  PROPSIM_CHECK(metric != nullptr);
  series_.emplace_back(std::move(series_name));
  metrics_.push_back(std::move(metric));
  schedule(sim, start_s, end_s, interval_s);
}

ConvergenceSampler::ConvergenceSampler(Scheduler& sim, double start_s,
                                       double end_s, double interval_s,
                                       PrepareFn prepare,
                                       std::vector<NamedMetric> metrics)
    : prepare_(std::move(prepare)) {
  PROPSIM_CHECK(!metrics.empty());
  series_.reserve(metrics.size());
  metrics_.reserve(metrics.size());
  for (NamedMetric& m : metrics) {
    PROPSIM_CHECK(m.fn != nullptr);
    series_.emplace_back(std::move(m.name));
    metrics_.push_back(std::move(m.fn));
  }
  schedule(sim, start_s, end_s, interval_s);
}

void ConvergenceSampler::schedule(Scheduler& sim, double start_s,
                                  double end_s, double interval_s) {
  PROPSIM_CHECK(interval_s > 0.0);
  PROPSIM_CHECK(end_s >= start_s);
  for (double t = start_s; t <= end_s + 1e-9; t += interval_s) {
    sim.schedule_at(t, [this, &sim] {
      if (prepare_) prepare_();
      for (std::size_t i = 0; i < metrics_.size(); ++i) {
        series_[i].record(sim.now(), metrics_[i]());
      }
    });
  }
}

}  // namespace propsim
