// Extension — PROP-G generality across five overlay substrates.
//
// The paper's title claim: one mechanism for "both unstructured and
// structured P2P systems", with the overlay's own structure untouched.
// We run the identical PROP-G engine over Gnutella, Chord, Pastry and
// CAN, report routed-lookup latency before/after, and machine-check the
// Theorem 2 isomorphism certificate on every substrate.
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "common/table.h"
#include "core/prop_engine.h"
#include "overlay/isomorphism.h"
#include "pastry/pastry.h"
#include "sim/scheduler.h"
#include "tapestry/tapestry.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

struct SubstrateResult {
  std::string name;
  double before_ms = 0.0;
  double after_ms = 0.0;
  std::uint64_t exchanges = 0;
  bool isomorphic = false;
  bool degrees_preserved = false;
};

/// Runs PROP-G on a prepared overlay with the given routed-latency
/// metric; verifies the isomorphism certificate.
SubstrateResult drive(const std::string& name, OverlayNetwork& net,
                      const std::function<double()>& routed_latency,
                      const BenchOptions& opts) {
  SubstrateResult r;
  r.name = name;
  r.before_ms = routed_latency();
  const auto degrees = net.graph().degree_multiset();
  const auto edges_before = host_edges(net.graph(), net.placement());
  const Placement placement_before = net.placement();

  Scheduler sim;
  PropEngine engine(net, sim, paper_prop_params(PropMode::kPropG),
                    opts.seed + 3);
  engine.start();
  sim.run_until(opts.scale_t(3600.0));

  r.after_ms = routed_latency();
  r.exchanges = engine.stats().exchanges;
  const auto edges_after = host_edges(net.graph(), net.placement());
  const auto [hosts, phi] =
      placement_bijection(placement_before, net.placement());
  r.isomorphic = isomorphic_via(edges_before, edges_after, hosts, phi);
  r.degrees_preserved = net.graph().degree_multiset() == degrees;
  std::printf("  [%s] %llu exchanges, %.0f -> %.0f ms\n", name.c_str(),
              static_cast<unsigned long long>(r.exchanges), r.before_ms,
              r.after_ms);
  return r;
}

int run(const BenchOptions& opts) {
  print_header(
      "Extension — PROP-G on Gnutella, Chord, Pastry, Tapestry and CAN",
      "the same engine reduces routed lookup latency on every substrate "
      "while each overlay stays isomorphic to its original (Theorem 2)");

  const std::size_t n = opts.scale_n(1000);
  const std::size_t q = opts.scale_q(5000);
  std::vector<SubstrateResult> results;

  // --- Gnutella (unstructured; flood first-response latency). ---
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    OverlayNetwork net = build_unstructured(world, n, rng);
    Rng qrng(opts.seed + 1);
    const auto queries = uniform_queries(net.graph(), q, qrng);
    results.push_back(drive(
        "Gnutella", net,
        [&] { return average_unstructured_lookup_latency(net, queries); },
        opts));
  }

  // --- Chord (greedy finger routing). ---
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    const auto hosts = select_stub_hosts(world.topo, n, rng);
    const auto ring = ChordRing::build_random(n, ChordConfig{}, rng);
    OverlayNetwork net = make_chord_overlay(ring, hosts, world.oracle);
    Rng qrng(opts.seed + 1);
    const auto queries = sample_query_pairs(net.graph(), q, qrng);
    const auto router = chord_router(net, ring);
    results.push_back(drive(
        "Chord", net,
        [&] { return average_route_latency(queries, router); }, opts));
  }

  // --- Pastry (prefix routing). ---
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    const auto hosts = select_stub_hosts(world.topo, n, rng);
    const auto pastry = PastryNetwork::build_random(n, PastryConfig{}, rng);
    OverlayNetwork net = make_pastry_overlay(pastry, hosts, world.oracle);
    Rng qrng(opts.seed + 1);
    const auto queries = sample_query_pairs(net.graph(), q, qrng);
    results.push_back(drive(
        "Pastry", net,
        [&] {
          double sum = 0.0;
          for (const QueryPair& pair : queries) {
            const auto path =
                pastry.lookup_path(pair.src, pastry.id_of(pair.dst));
            sum += path_latency(net, path);
          }
          return sum / static_cast<double>(queries.size());
        },
        opts));
  }

  // --- Tapestry (prefix routing with surrogate roots). ---
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    const auto hosts = select_stub_hosts(world.topo, n, rng);
    const auto tapestry =
        TapestryNetwork::build_random(n, TapestryConfig{}, rng);
    OverlayNetwork net = make_tapestry_overlay(tapestry, hosts, world.oracle);
    Rng qrng(opts.seed + 1);
    const auto queries = sample_query_pairs(net.graph(), q, qrng);
    results.push_back(drive(
        "Tapestry", net,
        [&] {
          double sum = 0.0;
          for (const QueryPair& pair : queries) {
            const auto path =
                tapestry.lookup_path(pair.src, tapestry.id_of(pair.dst));
            sum += path_latency(net, path);
          }
          return sum / static_cast<double>(queries.size());
        },
        opts));
  }

  // --- CAN (greedy coordinate routing). ---
  {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    const auto hosts = select_stub_hosts(world.topo, n, rng);
    const auto space = CanSpace::build(n, rng);
    OverlayNetwork net = make_can_overlay(space, hosts, world.oracle);
    Rng qrng(opts.seed + 1);
    // Random target points; destinations are the owning zones.
    std::vector<std::pair<SlotId, CanPoint>> queries;
    for (std::size_t i = 0; i < q; ++i) {
      queries.emplace_back(
          static_cast<SlotId>(qrng.uniform(n)),
          CanPoint{qrng.uniform(kCanSpan), qrng.uniform(kCanSpan)});
    }
    results.push_back(drive(
        "CAN", net,
        [&] {
          double sum = 0.0;
          for (const auto& [src, point] : queries) {
            sum += path_latency(net, space.route_path(src, point));
          }
          return sum / static_cast<double>(queries.size());
        },
        opts));
  }

  Table table({"substrate", "lookup_ms_before", "lookup_ms_after",
               "improvement", "exchanges", "isomorphic", "degrees_kept"});
  bool holds = true;
  for (const SubstrateResult& r : results) {
    table.add_row({r.name, Table::fmt(r.before_ms, 4),
                   Table::fmt(r.after_ms, 4),
                   improvement_factor(r.before_ms, r.after_ms),
                   std::to_string(r.exchanges),
                   r.isomorphic ? "yes" : "NO",
                   r.degrees_preserved ? "yes" : "NO"});
    holds = holds && r.after_ms < r.before_ms && r.isomorphic &&
            r.degrees_preserved && r.exchanges > 0;
  }
  print_csv_block("ext_generality", table.to_csv());
  std::printf("%s", table.to_ascii().c_str());
  print_verdict(holds,
                "PROP-G improves all five substrates and every overlay "
                "stays isomorphic with degrees intact");
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
