// Programmatic study: using propsim as a library for a custom parallel
// experiment campaign.
//
// The CLI tools cover one-off runs and flat sweeps; this example shows
// the API route: build the grid as SweepCombos in code, run it with
// run_sweep (the runner behind propsim_sweep: each simulation is
// deterministic, so parallel results are identical to serial, and the
// runs share the cores instead of each fanning its metric sweeps over
// all of them), and post-process with the stats helpers — here, asking
// a question the paper leaves open: how does PROP-G's improvement factor
// scale with the probe budget (INIT_TIMER), and where do extra probes
// stop paying?
#include <cstdio>
#include <string>
#include <vector>

#include "app/sweep.h"
#include "common/json.h"
#include "common/stats.h"

int main() {
  using namespace propsim;

  const std::vector<double> timers_s{15.0, 30.0, 60.0, 120.0, 240.0, 480.0};
  const std::size_t seeds = 3;

  std::vector<std::string> timers, seed_values;
  for (const double timer : timers_s) timers.push_back(std::to_string(timer));
  for (std::size_t si = 0; si < seeds; ++si) {
    seed_values.push_back(std::to_string(1000 + si * 7919));
  }
  // First axis slowest: combination t * seeds + s is timer t at seed s.
  const std::vector<SweepCombo> combos = expand_sweep(
      Config::parse("nodes = 300\nhorizon = 3600\nqueries = 2000\n"),
      {{"init_timer", timers}, {"seed", seed_values}});
  const SweepRuns runs = run_sweep(combos, 1);
  if (!runs.ok()) {
    std::fprintf(stderr, "%s", runs.errors.c_str());
    return 2;
  }
  std::printf("probe-budget study: %zu timer settings x %zu seeds on %zu "
              "workers\n",
              timers_s.size(), seeds, runs.workers);

  struct Cell {
    RunningStats improvement;
    RunningStats control_msgs;
  };
  std::vector<Cell> cells(timers_s.size());
  for (std::size_t task = 0; task < runs.results.size(); ++task) {
    const ExperimentResult& result = runs.results[task];
    Cell& cell = cells[task / seeds];
    cell.improvement.add(result.initial_value / result.final_value);
    cell.control_msgs.add(static_cast<double>(result.control_messages));
  }

  std::printf("\n%-12s %-22s %s\n", "INIT_TIMER", "improvement (mean+/-sd)",
              "control msgs (mean)");
  Json report = Json::array();
  for (std::size_t ti = 0; ti < timers_s.size(); ++ti) {
    std::printf("%8.0f s    %.2fx +/- %.2f         %.0f\n", timers_s[ti],
                cells[ti].improvement.mean(), cells[ti].improvement.stddev(),
                cells[ti].control_msgs.mean());
    Json row = Json::object();
    row.set("init_timer_s", timers_s[ti])
        .set("improvement", cells[ti].improvement.mean())
        .set("control_messages", cells[ti].control_msgs.mean());
    report.push_back(std::move(row));
  }

  // The takeaway the numbers show: probe-budget returns diminish
  // steeply — the fastest timer spends roughly an order of magnitude
  // more control messages than the slowest for a modest extra
  // improvement, because the Markov backoff throttles probing once the
  // easy exchanges are exhausted.
  std::printf("\nmachine-readable report:\n%s\n", report.dump(2).c_str());
  return 0;
}
