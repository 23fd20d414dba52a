#include "app/sweep.h"

#include <algorithm>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/worker_group.h"
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
  const std::size_t hardware = std::thread::hardware_concurrency();
  // Each run is one task, so the group gets no more participants than
  // runs, and runs share the cores: each auto run measures on its share.
  const std::size_t offered =
      jobs == 0 ? std::max<std::size_t>(hardware, 1) : jobs;
  const std::size_t concurrent = std::min(offered, combos.size() * repeat);
  SweepRuns runs;
  std::vector<ExperimentSpec> specs;
  for (const SweepCombo& combo : combos) {
    const SpecResult parsed = ExperimentSpec::from_config(combo.config);
    if (!parsed.ok()) {
      runs.errors += "combination " + combo.label + ":\n" +
                     parsed.error_report();
      continue;
    }
    const std::size_t measure = parsed.spec().measure_threads;
    if (measure != MeasureEngine::kAutoThreads &&
        measure * concurrent > kMaxSweepThreads) {
      runs.errors += "combination " + combo.label +
                     ":\nconfig: measure_threads: " +
                     std::to_string(measure) + " threads in each of " +
                     std::to_string(concurrent) + " concurrent runs exceed " +
                     std::to_string(kMaxSweepThreads) +
                     " threads (lower measure_threads or the jobs, or use "
                     "measure_threads = auto)\n";
      continue;
    }
    specs.push_back(parsed.spec());
  }
  if (!runs.ok() || specs.empty()) return runs;

  runs.results.resize(specs.size() * repeat);
  runs.workers = concurrent;
  runs.measure_threads =
      measure_threads_for(MeasureEngine::kAutoThreads, concurrent, hardware);
  WorkerGroup group(concurrent - 1);
  group.run(runs.results.size(), 1,
            [&](std::size_t /*participant*/, std::size_t begin,
                std::size_t end) {
              for (std::size_t task = begin; task < end; ++task) {
                ExperimentSpec spec = specs[task / repeat];
                spec.seed += (task % repeat) * kRepeatSeedStride;
                spec.measure_threads = measure_threads_for(
                    spec.measure_threads, concurrent, hardware);
                runs.results[task] = run_experiment(spec);
              }
            });
  return runs;
}

}  // namespace propsim
