// Ablation — cooperative peer-exchange vs selfish rewiring (Section 3.1).
//
// "This selfish method ... is beneficial to the source node itself but
// is not always beneficial to (or in some case may actually detract
// from) system-wide optimization." We give both strategies the same
// number of optimization steps and compare the system-wide average
// logical link latency, the lookup latency, and the degree distortion.
#include <cmath>
#include <cstdio>

#include "baselines/selfish.h"
#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/prop_engine.h"
#include "sim/scheduler.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

struct Outcome {
  double link_latency = 0.0;
  double lookup_latency = 0.0;   // over reachable pairs only
  double unreachable_pct = 0.0;  // selfish rewiring can partition!
  std::size_t max_degree = 0;
  std::size_t min_degree = 0;
  bool connected = false;
};

Outcome snapshot(OverlayNetwork& net, const BenchOptions& opts) {
  Outcome o;
  o.link_latency = net.average_logical_link_latency();
  Rng qrng(opts.seed + 29);
  const auto queries =
      uniform_queries(net.graph(), opts.scale_q(5000), qrng);
  const auto lats = unstructured_lookup_latencies(net, queries);
  double sum = 0.0;
  std::size_t reachable = 0;
  for (const double l : lats) {
    if (std::isfinite(l)) {
      sum += l;
      ++reachable;
    }
  }
  o.lookup_latency = reachable ? sum / static_cast<double>(reachable) : 0.0;
  o.unreachable_pct = 100.0 * static_cast<double>(lats.size() - reachable) /
                      static_cast<double>(lats.size());
  o.max_degree = 0;
  o.min_degree = static_cast<std::size_t>(-1);
  for (const SlotId s : net.graph().active_slots()) {
    o.max_degree = std::max(o.max_degree, net.graph().degree(s));
    o.min_degree = std::min(o.min_degree, net.graph().degree(s));
  }
  o.connected = net.graph().active_subgraph_connected();
  return o;
}

int run(const BenchOptions& opts) {
  print_header(
      "Ablation — cooperative PROP-O exchange vs selfish rewiring",
      "the selfish nearest-neighbor strategy helps each acting node but "
      "optimizes the system less than cooperative exchange and distorts "
      "the degree structure");

  const std::size_t n = opts.scale_n(800);
  const std::size_t steps = opts.quick ? 4000 : 16000;

  // --- PROP-O: cooperative, driven step-by-step for a fair budget. ---
  Outcome coop_before, coop_after;
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    OverlayNetwork net = build_unstructured(world, n, rng);
    coop_before = snapshot(net, opts);
    Scheduler sim;
    PropParams params = paper_prop_params(PropMode::kPropO);
    PropEngine engine(net, sim, params, opts.seed + 31);
    engine.start();
    Rng pick(opts.seed + 37);
    const auto slots = net.graph().active_slots();
    for (std::size_t i = 0; i < steps; ++i) {
      engine.attempt(
          slots[static_cast<std::size_t>(pick.uniform(slots.size()))]);
    }
    coop_after = snapshot(net, opts);
  }

  // --- Selfish: same step budget. ---
  Outcome selfish_before, selfish_after;
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    OverlayNetwork net = build_unstructured(world, n, rng);
    selfish_before = snapshot(net, opts);
    Rng pick(opts.seed + 37);
    SelfishParams params;
    const auto slots = net.graph().active_slots();
    for (std::size_t i = 0; i < steps; ++i) {
      selfish_step(
          net, slots[static_cast<std::size_t>(pick.uniform(slots.size()))],
          params, pick);
    }
    selfish_after = snapshot(net, opts);
  }

  Table table({"strategy", "link_ms_before", "link_ms_after",
               "lookup_ms_after", "unreachable_pct", "min_deg", "max_deg",
               "connected"});
  table.add_row({"PROP-O", Table::fmt(coop_before.link_latency, 4),
                 Table::fmt(coop_after.link_latency, 4),
                 Table::fmt(coop_after.lookup_latency, 4),
                 Table::fmt(coop_after.unreachable_pct, 3),
                 std::to_string(coop_after.min_degree),
                 std::to_string(coop_after.max_degree),
                 coop_after.connected ? "yes" : "no"});
  table.add_row({"selfish", Table::fmt(selfish_before.link_latency, 4),
                 Table::fmt(selfish_after.link_latency, 4),
                 Table::fmt(selfish_after.lookup_latency, 4),
                 Table::fmt(selfish_after.unreachable_pct, 3),
                 std::to_string(selfish_after.min_degree),
                 std::to_string(selfish_after.max_degree),
                 selfish_after.connected ? "yes" : "no"});
  print_csv_block("ablation_selfish", table.to_csv());
  std::printf("%s", table.to_ascii().c_str());

  // Cooperative exchange must deliver better system-wide service under
  // the same step budget: lower reachable-pair latency OR a reachability
  // the selfish strategy lost, plus the degree floor it erodes. (The
  // selfish strategy partitioning the overlay at full scale is itself
  // the paper's Section 3.1 point.)
  const bool system_wide =
      coop_after.unreachable_pct < selfish_after.unreachable_pct ||
      (coop_after.unreachable_pct == selfish_after.unreachable_pct &&
       coop_after.lookup_latency < selfish_after.lookup_latency);
  const bool degrees_kept =
      coop_after.min_degree >= selfish_after.min_degree &&
      coop_after.connected;
  const bool holds = system_wide && degrees_kept;
  char detail[320];
  std::snprintf(
      detail, sizeof(detail),
      "after: PROP-O %.0f ms (%.1f%% unreachable) vs selfish %.0f ms "
      "(%.1f%% unreachable); min degree %zu vs %zu; selfish partitioned "
      "the overlay: %s",
      coop_after.lookup_latency, coop_after.unreachable_pct,
      selfish_after.lookup_latency, selfish_after.unreachable_pct,
      coop_after.min_degree, selfish_after.min_degree,
      selfish_after.connected ? "no" : "yes");
  print_verdict(holds, detail);
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
