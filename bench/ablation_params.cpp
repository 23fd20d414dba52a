// Ablation — the design choices DESIGN.md calls out.
//
// (1) MIN_VAR: the paper sets it to 0 (Section 4.2 shows Var > 0 already
//     guarantees improvement); larger thresholds trade convergence for
//     fewer exchanges.
// (2) Timer backoff on/off: backoff slashes steady-state probing traffic
//     at a negligible latency cost.
// (3) neighborQ priority on/off: priority feedback should not hurt and
//     trims wasted probes.
// (4) PROP-O selection policy: greedy transfer-set choice vs the
//     literal "arbitrary m neighbors".
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "core/prop_engine.h"
#include "sim/scheduler.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

struct RunResult {
  double lookup_ms = 0.0;
  std::uint64_t exchanges = 0;
  std::uint64_t attempts = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t control_msgs = 0;
};

RunResult run_config(const PropParams& params, const BenchOptions& opts) {
  Rng rng(opts.seed);
  World world(TransitStubConfig::ts_large(), rng);
  OverlayNetwork net = build_unstructured(world, opts.scale_n(800), rng);
  Scheduler sim;
  PropEngine engine(net, sim, params, opts.seed + 41);
  engine.start();
  net.traffic().reset();
  sim.run_until(opts.scale_t(7200.0));
  RunResult r;
  Rng qrng(opts.seed + 43);
  const auto queries =
      uniform_queries(net.graph(), opts.scale_q(5000), qrng);
  r.lookup_ms = average_unstructured_lookup_latency(net, queries);
  r.exchanges = engine.stats().exchanges;
  r.attempts = engine.stats().attempts;
  r.conflicts = engine.stats().commit_conflicts;
  r.control_msgs = net.traffic().control_total();
  return r;
}

int run(const BenchOptions& opts) {
  print_header(
      "Ablation — MIN_VAR sweep, backoff, neighborQ priority, PROP-O "
      "selection policy",
      "MIN_VAR=0 converges best; backoff cuts probe traffic with little "
      "latency cost; priority queue and greedy selection help");

  bool holds = true;

  // --- (1) MIN_VAR sweep (PROP-G). ---
  {
    Table table({"min_var_ms", "lookup_ms", "exchanges", "ctrl_msgs"});
    std::vector<RunResult> results;
    for (const double mv : {0.0, 50.0, 200.0, 800.0}) {
      PropParams p = paper_prop_params(PropMode::kPropG);
      p.min_var = mv;
      results.push_back(run_config(p, opts));
      table.add_row_values({mv, results.back().lookup_ms,
                            static_cast<double>(results.back().exchanges),
                            static_cast<double>(results.back().control_msgs)});
    }
    print_csv_block("ablation_min_var", table.to_csv());
    std::printf("%s", table.to_ascii().c_str());
    // Latency is monotone non-decreasing in MIN_VAR, exchanges monotone
    // non-increasing.
    for (std::size_t i = 1; i < results.size(); ++i) {
      holds = holds && results[i].lookup_ms >=
                           results[i - 1].lookup_ms - 1e-6;
      holds = holds && results[i].exchanges <= results[i - 1].exchanges;
    }
  }

  // --- (2) Backoff on/off (PROP-G). ---
  {
    PropParams with = paper_prop_params(PropMode::kPropG);
    PropParams without = with;
    without.use_backoff = false;
    const RunResult rw = run_config(with, opts);
    const RunResult ro = run_config(without, opts);
    Table table({"backoff", "lookup_ms", "attempts", "ctrl_msgs"});
    table.add_row({"on", Table::fmt(rw.lookup_ms, 4),
                   std::to_string(rw.attempts),
                   std::to_string(rw.control_msgs)});
    table.add_row({"off", Table::fmt(ro.lookup_ms, 4),
                   std::to_string(ro.attempts),
                   std::to_string(ro.control_msgs)});
    print_csv_block("ablation_backoff", table.to_csv());
    std::printf("%s", table.to_ascii().c_str());
    // Backoff cuts probing volume sharply at <10% latency penalty.
    holds = holds && rw.attempts < ro.attempts / 2 &&
            rw.lookup_ms < ro.lookup_ms * 1.10;
  }

  // --- (3) neighborQ priority on/off (PROP-G). ---
  {
    PropParams with = paper_prop_params(PropMode::kPropG);
    PropParams without = with;
    without.use_priority_queue = false;
    const RunResult rw = run_config(with, opts);
    const RunResult ro = run_config(without, opts);
    Table table({"priority_queue", "lookup_ms", "exchanges"});
    table.add_row({"on", Table::fmt(rw.lookup_ms, 4),
                   std::to_string(rw.exchanges)});
    table.add_row({"off", Table::fmt(ro.lookup_ms, 4),
                   std::to_string(ro.exchanges)});
    print_csv_block("ablation_priority", table.to_csv());
    std::printf("%s", table.to_ascii().c_str());
    holds = holds && rw.lookup_ms < ro.lookup_ms * 1.10;
  }

  // --- (4) PROP-O selection policy. ---
  {
    PropParams greedy = paper_prop_params(PropMode::kPropO);
    greedy.selection = SelectionPolicy::kGreedy;
    PropParams random = greedy;
    random.selection = SelectionPolicy::kRandom;
    const RunResult rg = run_config(greedy, opts);
    const RunResult rr = run_config(random, opts);
    Table table({"selection", "lookup_ms", "exchanges"});
    table.add_row({"greedy", Table::fmt(rg.lookup_ms, 4),
                   std::to_string(rg.exchanges)});
    table.add_row({"random", Table::fmt(rr.lookup_ms, 4),
                   std::to_string(rr.exchanges)});
    print_csv_block("ablation_selection", table.to_csv());
    std::printf("%s", table.to_ascii().c_str());
    holds = holds && rg.lookup_ms <= rr.lookup_ms * 1.02;
  }

  // --- (5) atomic vs message-delayed commits. ---
  {
    PropParams atomic = paper_prop_params(PropMode::kPropG);
    PropParams delayed = atomic;
    delayed.model_message_delays = true;
    const RunResult ra = run_config(atomic, opts);
    const RunResult rd = run_config(delayed, opts);
    Table table({"commit_model", "lookup_ms", "exchanges", "conflicts"});
    table.add_row({"atomic", Table::fmt(ra.lookup_ms, 4),
                   std::to_string(ra.exchanges),
                   std::to_string(ra.conflicts)});
    table.add_row({"message-delayed", Table::fmt(rd.lookup_ms, 4),
                   std::to_string(rd.exchanges),
                   std::to_string(rd.conflicts)});
    print_csv_block("ablation_commit_model", table.to_csv());
    std::printf("%s", table.to_ascii().c_str());
    // Modeling negotiation latency must not change the outcome
    // materially: the paper's atomic-exchange analysis is a sound
    // approximation at these probe rates.
    holds = holds && rd.lookup_ms < ra.lookup_ms * 1.10;
  }

  print_verdict(holds,
                "MIN_VAR monotone, backoff halves probes cheaply, "
                "priority queue and greedy selection are no-regret, and "
                "message-delayed commits match the atomic model");
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
