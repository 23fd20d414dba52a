// Extension — probe-free PROP via Vivaldi virtual coordinates.
//
// Section 4.3 prices every exchange attempt at nhops + 2c probe
// messages. If peers maintain Vivaldi coordinates (Dabek et al. 2004 —
// the same system the paper's heterogeneity setup cites), the Var of a
// hypothetical exchange can be *estimated* from coordinates, making the
// probe phase free. This bench drives the identical exchange loop twice
// on the same overlay and seeds — once deciding on true probed
// latencies, once on coordinate estimates — and reports how much of the
// true-probing gain the estimate retains, the decision agreement rate,
// and the probe messages avoided.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "core/exchange.h"
#include "topology/vivaldi.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

/// prop_g_var computed under an arbitrary host-latency function.
template <typename LatencyFn>
double estimated_prop_g_var(const OverlayNetwork& net, SlotId u, SlotId v,
                            LatencyFn&& lat) {
  const NodeId host_u = net.placement().host_of(u);
  const NodeId host_v = net.placement().host_of(v);
  double before = 0.0;
  double after = 0.0;
  for (const SlotId i : net.graph().neighbors(u)) {
    const NodeId hi = net.placement().host_of(i);
    before += lat(host_u, hi);
    after += lat(host_v, (i == v) ? host_u : hi);
  }
  for (const SlotId i : net.graph().neighbors(v)) {
    const NodeId hi = net.placement().host_of(i);
    before += lat(host_v, hi);
    after += lat(host_u, (i == u) ? host_v : hi);
  }
  return before - after;
}

struct LoopResult {
  double final_lookup_ms = 0.0;
  std::uint64_t commits = 0;
  std::uint64_t probe_messages = 0;
};

int run(const BenchOptions& opts) {
  print_header(
      "Extension — Var from Vivaldi coordinates instead of probes",
      "coordinate-estimated Var retains most of the probed-Var latency "
      "gain while eliminating the 2c probe messages per attempt");

  const std::size_t n = opts.scale_n(1000);
  const std::size_t attempts = opts.quick ? 8000 : 30000;

  // Shared starting world. Each loop gets its own copy of the overlay.
  Rng rng(opts.seed);
  World world(TransitStubConfig::ts_large(), rng);
  const OverlayNetwork base = build_unstructured(world, n, rng);
  Rng qrng(opts.seed + 1);
  const auto queries =
      uniform_queries(base.graph(), opts.scale_q(5000), qrng);
  MeasureEngine measure(MeasureEngine::kAutoThreads);
  const double before_ms =
      measure.average_lookup_latency(OverlaySnapshot::capture(base), queries);

  // Vivaldi bootstrap: ~150 measurements per overlay host, the traffic a
  // live deployment observes anyway.
  const auto hosts = base.placement().bound_hosts();
  VivaldiSystem viv(world.topo.graph.node_count(), opts.seed + 2);
  Rng trng(opts.seed + 3);
  viv.train(hosts, world.oracle, 150 * hosts.size(), trng);
  Rng erng(opts.seed + 4);
  const double coord_error =
      viv.median_relative_error(hosts, world.oracle, 2000, erng);
  std::printf("vivaldi median relative error after training: %.1f%%\n",
              100.0 * coord_error);

  // Both loops replay the identical candidate stream (same seed).
  auto run_loop = [&](bool use_estimates, std::uint64_t* agree,
                      std::uint64_t* total) {
    OverlayNetwork net = base;  // fresh copy, same starting placement
    Rng lrng(opts.seed + 5);    // same stream for both loops
    LoopResult r;
    std::vector<SlotId> walk;
    for (std::size_t a = 0; a < attempts; ++a) {
      const auto slots = net.graph().active_slots();
      const SlotId u =
          slots[static_cast<std::size_t>(lrng.uniform(slots.size()))];
      const auto neigh = net.graph().neighbors(u);
      if (neigh.empty()) continue;
      const SlotId first =
          neigh[static_cast<std::size_t>(lrng.uniform(neigh.size()))];
      if (!net.random_walk(u, first, 2, lrng, walk)) continue;
      const SlotId v = walk.back();
      const double true_var = prop_g_var(net, u, v);
      const double est_var = estimated_prop_g_var(
          net, u, v,
          [&](NodeId a_host, NodeId b_host) {
            return viv.estimate(a_host, b_host);
          });
      if (agree != nullptr) {
        ++*total;
        if ((true_var > 0) == (est_var > 0)) ++*agree;
      }
      const double decision_var = use_estimates ? est_var : true_var;
      if (!use_estimates) {
        // Probing both neighborhoods: 2c messages (Section 4.3).
        r.probe_messages +=
            net.graph().degree(u) + net.graph().degree(v);
      }
      if (decision_var > 0.0) {
        net.swap_hosts(u, v);  // the PROP-G commit
        ++r.commits;
      }
    }
    r.final_lookup_ms =
        measure.average_lookup_latency(OverlaySnapshot::capture(net), queries);
    return r;
  };

  std::uint64_t agree = 0;
  std::uint64_t total = 0;
  const LoopResult probed = run_loop(false, nullptr, nullptr);
  const LoopResult estimated = run_loop(true, &agree, &total);

  Table table({"decision_source", "final_lookup_ms", "improvement",
               "commits", "probe_msgs"});
  table.add_row({"probed (true Var)", Table::fmt(probed.final_lookup_ms, 5),
                 improvement_factor(before_ms, probed.final_lookup_ms),
                 std::to_string(probed.commits),
                 std::to_string(probed.probe_messages)});
  table.add_row({"vivaldi (est. Var)",
                 Table::fmt(estimated.final_lookup_ms, 5),
                 improvement_factor(before_ms, estimated.final_lookup_ms),
                 std::to_string(estimated.commits),
                 std::to_string(estimated.probe_messages)});
  print_csv_block("ext_vivaldi", table.to_csv());
  std::printf("%s", table.to_ascii().c_str());
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(total);
  std::printf("decision agreement (sign of Var): %.1f%%\n",
              100.0 * agreement);

  const double probed_gain = before_ms - probed.final_lookup_ms;
  const double est_gain = before_ms - estimated.final_lookup_ms;
  const bool holds = probed_gain > 0.0 && est_gain > 0.6 * probed_gain &&
                     estimated.probe_messages == 0 && agreement > 0.7;
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "estimated-Var keeps %.0f%% of the probed gain "
                "(%.0f of %.0f ms) with 0 probe messages vs %llu",
                100.0 * est_gain / probed_gain, est_gain, probed_gain,
                static_cast<unsigned long long>(probed.probe_messages));
  print_verdict(holds, detail);
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
