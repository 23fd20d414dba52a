#include "app/sweep.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/thread_pool.h"
#include "measure/measure_engine.h"

namespace propsim {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const auto comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}

std::optional<SweepAxis> parse_sweep_axis(const std::string& arg,
                                          std::string& error) {
  const std::string body = arg.rfind("sweep:", 0) == 0 ? arg.substr(6) : "";
  const auto eq = body.find('=');
  if (eq == std::string::npos || eq == 0) {
    error = "sweep axis '" + arg + "': expected sweep:key=v1,v2,...";
    return std::nullopt;
  }
  SweepAxis axis{body.substr(0, eq), split_commas(body.substr(eq + 1))};
  for (const std::string& v : axis.values) {
    if (v.empty()) {
      error = "sweep axis '" + arg + "': empty value";
      return std::nullopt;
    }
  }
  return axis;
}

namespace {

void expand_recursive(const std::vector<SweepAxis>& axes, std::size_t axis,
                      SweepCombo current, std::vector<SweepCombo>& out) {
  if (axis == axes.size()) {
    if (current.label.empty()) current.label = "(base)";
    out.push_back(std::move(current));
    return;
  }
  for (const std::string& value : axes[axis].values) {
    SweepCombo next = current;
    next.config.set(axes[axis].key, value);
    if (!next.label.empty()) next.label += " ";
    next.label += axes[axis].key + "=" + value;
    expand_recursive(axes, axis + 1, std::move(next), out);
  }
}

}  // namespace

std::vector<SweepCombo> expand_sweep(const Config& base,
                                     const std::vector<SweepAxis>& axes) {
  std::vector<SweepCombo> out;
  SweepCombo seed;
  seed.config = base;
  expand_recursive(axes, 0, std::move(seed), out);
  return out;
}

SweepRuns run_sweep(const std::vector<SweepCombo>& combos,
                    std::size_t repeat, std::size_t jobs) {
  PROPSIM_CHECK(repeat >= 1);
  SweepRuns runs;
  std::vector<ExperimentSpec> specs;
  for (const SweepCombo& combo : combos) {
    const SpecResult parsed = ExperimentSpec::from_config(combo.config);
    if (parsed.ok()) {
      specs.push_back(parsed.spec());
    } else {
      runs.errors += "combination " + combo.label + ":\n" +
                     parsed.error_report();
    }
  }
  if (!runs.ok()) return runs;

  runs.results.resize(specs.size() * repeat);
  if (runs.results.empty()) return runs;
  const std::size_t hardware = std::thread::hardware_concurrency();
  // Each run is one task, so the pool gets no more workers than runs.
  const std::size_t offered =
      jobs == 0 ? std::max<std::size_t>(hardware, 1) : jobs;
  ThreadPool pool(std::min(offered, runs.results.size()));
  runs.workers = pool.worker_count();
  // Runs share the cores: each auto run measures on its share of them.
  const std::size_t concurrent = runs.workers;
  runs.measure_threads =
      measure_threads_for(MeasureEngine::kAutoThreads, concurrent, hardware);
  pool.parallel_for(runs.results.size(), [&](std::size_t task) {
    ExperimentSpec spec = specs[task / repeat];
    spec.seed += (task % repeat) * kRepeatSeedStride;
    spec.measure_threads =
        measure_threads_for(spec.measure_threads, concurrent, hardware);
    runs.results[task] = run_experiment(spec);
  });
  return runs;
}

}  // namespace propsim
