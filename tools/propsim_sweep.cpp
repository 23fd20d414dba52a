// propsim_sweep — parallel parameter-sweep driver.
//
//   propsim_sweep [base.conf] [key=value ...]
//                 sweep:nodes=300,500,1000 sweep:protocol=prop-g,ltm
//                 [--jobs N] [--repeat K] [--format csv|json]
//
// Builds the Cartesian product of every sweep axis (times K seed
// repeats), runs each combination as an independent deterministic
// simulation on a worker group, and prints one aggregated row per
// combination. Simulations never share state, so the output is
// identical to a serial run. Every combination's config is validated
// up-front: one bad axis value, or an explicit measure_threads that
// times the runs in flight exceeds 256 threads, stops the sweep with
// the full per-key error list before any simulation runs. Bad configs, unreadable config
// files, malformed sweep axes and bad flag values exit with code 2.
// `--format json` replaces the ASCII/CSV tables with a `propsim.sweep`
// JSON document.
#include <cstdio>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/sweep.h"
#include "common/config.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/table.h"

using namespace propsim;

int main(int argc, char** argv) {
  Config base;
  std::vector<SweepAxis> axes;
  std::size_t jobs = 0;
  std::size_t repeat = 1;
  bool json_output = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [base.conf] [key=value ...] sweep:key=v1,v2,... "
          "[--jobs N] [--repeat K] [--format csv|json]\n",
          argv[0]);
      return 0;
    }
    if ((arg == "--jobs" || arg == "--repeat") && i + 1 < argc) {
      // Every job is an OS thread, and every repeat a result held until
      // the sweep ends.
      const std::int64_t most =
          arg == "--jobs" ? static_cast<std::int64_t>(kMaxSweepThreads)
                          : 10000;
      const auto n = parse_int(argv[++i]);
      if (!n || *n < 0 || *n > most) {
        std::fprintf(stderr,
                     "propsim_sweep: %s needs an integer in [0, %lld]\n",
                     arg.c_str(), static_cast<long long>(most));
        return 2;
      }
      (arg == "--jobs" ? jobs : repeat) = static_cast<std::size_t>(*n);
      continue;
    }
    if (arg == "--format" && i + 1 < argc) {
      const std::string format = argv[++i];
      if (format == "json") {
        json_output = true;
      } else if (format == "csv") {
        json_output = false;
      } else {
        std::fprintf(stderr, "unknown --format '%s' (csv | json)\n",
                     format.c_str());
        return 2;
      }
      continue;
    }
    std::string error;
    if (arg.rfind("sweep:", 0) == 0) {
      const auto axis = parse_sweep_axis(arg, error);
      if (!axis) {
        std::fprintf(stderr, "propsim_sweep: %s\n", error.c_str());
        return 2;
      }
      axes.push_back(*axis);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      base.set(arg.substr(0, eq), arg.substr(eq + 1));
    } else {
      const auto file = Config::try_load_file(arg, error);
      if (!file) {
        std::fprintf(stderr, "propsim_sweep: %s\n", error.c_str());
        return 2;
      }
      for (const auto& [key, value] : file->values()) base.set(key, value);
    }
  }
  if (repeat == 0) repeat = 1;

  const std::vector<SweepCombo> combos = expand_sweep(base, axes);
  const SweepRuns runs = run_sweep(combos, repeat, jobs);
  if (!runs.ok()) {
    std::fprintf(stderr, "%s", runs.errors.c_str());
    return 2;
  }

  struct Cell {
    RunningStats initial;
    RunningStats final;
    RunningStats exchanges;
    bool connected = true;
    std::string metric;
  };
  std::vector<Cell> cells(combos.size());
  for (std::size_t task = 0; task < runs.results.size(); ++task) {
    const ExperimentResult& result = runs.results[task];
    Cell& cell = cells[task / repeat];
    cell.initial.add(result.initial_value);
    cell.final.add(result.final_value);
    cell.exchanges.add(static_cast<double>(result.exchanges));
    cell.connected = cell.connected && result.connected;
    cell.metric = result.metric_name;
  }
  if (!json_output) {
    std::printf("sweep: %zu combinations x %zu repeats on %zu workers\n",
                combos.size(), repeat, runs.workers);
  }

  bool all_connected = true;
  if (json_output) {
    Json out = Json::object();
    out.set("schema", "propsim.sweep");
    out.set("version", 1);
    out.set("repeats", static_cast<std::uint64_t>(repeat));
    Json rows = Json::array();
    for (std::size_t ci = 0; ci < combos.size(); ++ci) {
      const Cell& cell = cells[ci];
      Json row = Json::object();
      row.set("combination", combos[ci].label)
          .set("metric", cell.metric)
          .set("initial_mean", cell.initial.mean())
          .set("final_mean", cell.final.mean())
          .set("final_sd", cell.final.stddev())
          .set("improvement", cell.initial.mean() / cell.final.mean())
          .set("exchanges_mean", cell.exchanges.mean())
          .set("connected", cell.connected);
      rows.push_back(std::move(row));
      all_connected = all_connected && cell.connected;
    }
    out.set("combinations", std::move(rows));
    std::printf("%s\n", out.dump(2).c_str());
    return all_connected ? 0 : 1;
  }

  Table table({"combination", "metric", "initial(mean)", "final(mean)",
               "final(sd)", "improvement", "exchanges", "connected"});
  for (std::size_t ci = 0; ci < combos.size(); ++ci) {
    const Cell& cell = cells[ci];
    table.add_row({combos[ci].label, cell.metric,
                   Table::fmt(cell.initial.mean(), 5),
                   Table::fmt(cell.final.mean(), 5),
                   Table::fmt(cell.final.stddev(), 3),
                   Table::fmt(cell.initial.mean() / cell.final.mean(), 4),
                   Table::fmt(cell.exchanges.mean(), 5),
                   cell.connected ? "yes" : "NO"});
    all_connected = all_connected && cell.connected;
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("\ncsv:\n%s", table.to_csv().c_str());
  return all_connected ? 0 : 1;
}
