// Section 5.2's closing claim — combining PROP with other methods.
//
// "By combining it with other recent methods, the overall performance
// can be further improved." We initialize Chord three ways — plain
// random ids, PNS fingers, PIS identifier assignment — and layer PROP-G
// on each, reporting lookup stretch before and after.
#include <cstdio>

#include "baselines/pis.h"
#include "baselines/topo_can.h"
#include "bench_util.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "pastry/pastry.h"
#include "tapestry/tapestry.h"
#include "common/table.h"
#include "core/prop_engine.h"
#include "measure/measure_engine.h"
#include "sim/scheduler.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

struct Row {
  std::string label;
  double before = 0.0;
  double after = 0.0;
};

int run(const BenchOptions& opts) {
  print_header(
      "Combination study — PROP-G layered on PNS / PIS Chord variants",
      "PNS and PIS already lower stretch; PROP-G further improves each "
      "and never hurts");

  const std::size_t n = opts.scale_n(1000);
  const double horizon = opts.scale_t(3600.0);
  // Stretch sweeps run on the parallel measurement engine; results are
  // bit-identical to the serial path for any worker count.
  MeasureEngine measure(MeasureEngine::kAutoThreads);
  std::vector<Row> rows;

  for (const std::string& variant :
       {std::string("plain"), std::string("PNS"), std::string("PIS")}) {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    const auto hosts = select_stub_hosts(world.topo, n, rng);

    ChordConfig ccfg;
    ChordRing ring = [&]() -> ChordRing {
      if (variant == "PIS") {
        const auto landmarks = select_landmarks(world.topo, 8, rng);
        return ChordRing::build_with_ids(
            pis_identifiers(hosts, landmarks, world.oracle, rng), ccfg);
      }
      if (variant == "PNS") {
        ChordConfig pns_cfg = ccfg;
        pns_cfg.pns_candidates = 8;
        ChordRing r = ChordRing::build_random(n, pns_cfg, rng);
        r.apply_pns(hosts, world.oracle);
        return r;
      }
      return ChordRing::build_random(n, ccfg, rng);
    }();

    OverlayNetwork net = make_chord_overlay(ring, hosts, world.oracle);
    Rng qrng(opts.seed + 17);
    const auto queries =
        uniform_queries(net.graph(), opts.scale_q(10000), qrng);
    const auto router = chord_router(net, ring);

    Row row;
    row.label = variant;
    row.before = measure.stretch(net, queries, router).stretch;

    Scheduler sim;
    PropEngine engine(net, sim, PropParams{.mode = PropMode::kPropG},
                      opts.seed + 23);
    engine.start();
    sim.run_until(horizon);
    row.after = measure.stretch(net, queries, router).stretch;
    std::printf("  [%s] exchanges=%llu stretch %.3f -> %.3f\n",
                variant.c_str(),
                static_cast<unsigned long long>(engine.stats().exchanges),
                row.before, row.after);
    rows.push_back(row);
  }

  // Prefix-routing legs: Pastry and Tapestry with their published
  // proximity-aware neighbor selection, PROP-G layered on top.
  for (const bool use_tapestry : {false, true}) {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    const auto hosts = select_stub_hosts(world.topo, n, rng);
    Row row;
    Scheduler sim;
    double after = 0.0;
    if (use_tapestry) {
      auto mesh = TapestryNetwork::build_random(n, rng);
      mesh.apply_proximity(hosts, world.oracle);
      OverlayNetwork net = make_tapestry_overlay(mesh, hosts, world.oracle);
      Rng qrng(opts.seed + 17);
      const auto queries =
          uniform_queries(net.graph(), opts.scale_q(10000), qrng);
      const auto router = [&](const QueryPair& qp) {
        return path_latency(net,
                            mesh.lookup_path(qp.src, mesh.id_of(qp.dst)));
      };
      row.label = "Tapestry-prox";
      row.before = measure.stretch(net, queries, router).stretch;
      PropEngine engine(net, sim, PropParams{.mode = PropMode::kPropG},
                        opts.seed + 23);
      engine.start();
      sim.run_until(horizon);
      after = measure.stretch(net, queries, router).stretch;
    } else {
      auto mesh = PastryNetwork::build_random(n, rng);
      mesh.apply_proximity(hosts, world.oracle);
      OverlayNetwork net = make_pastry_overlay(mesh, hosts, world.oracle);
      Rng qrng(opts.seed + 17);
      const auto queries =
          uniform_queries(net.graph(), opts.scale_q(10000), qrng);
      const auto router = [&](const QueryPair& qp) {
        return path_latency(net,
                            mesh.lookup_path(qp.src, mesh.id_of(qp.dst)));
      };
      row.label = "Pastry-prox";
      row.before = measure.stretch(net, queries, router).stretch;
      PropEngine engine(net, sim, PropParams{.mode = PropMode::kPropG},
                        opts.seed + 23);
      engine.start();
      sim.run_until(horizon);
      after = measure.stretch(net, queries, router).stretch;
    }
    row.after = after;
    std::printf("  [%s] stretch %.3f -> %.3f\n", row.label.c_str(),
                row.before, row.after);
    rows.push_back(row);
  }

  // CAN leg: plain random assignment vs topologically-aware assignment
  // (the related-work technique that only works on CAN), each with
  // PROP-G layered on top.
  for (const bool topo_aware : {false, true}) {
    Rng rng(opts.seed);
    World world(TransitStubConfig::ts_large(), rng);
    auto hosts = select_stub_hosts(world.topo, n, rng);
    const auto space = CanSpace::build(n, rng);
    if (topo_aware) {
      const auto landmarks = select_landmarks(world.topo, 8, rng);
      hosts = topo_aware_can_assignment(space, hosts, landmarks,
                                        world.oracle, rng);
    }
    OverlayNetwork net = make_can_overlay(space, hosts, world.oracle);
    Rng qrng(opts.seed + 17);
    const auto queries =
        uniform_queries(net.graph(), opts.scale_q(10000), qrng);
    const auto router = [&](const QueryPair& q) {
      return path_latency(net,
                          space.route_path(q.src, space.zone(q.dst).center()));
    };
    Row row;
    row.label = topo_aware ? "CAN-topo" : "CAN-plain";
    row.before = measure.stretch(net, queries, router).stretch;
    Scheduler sim;
    PropEngine engine(net, sim, PropParams{.mode = PropMode::kPropG},
                      opts.seed + 23);
    engine.start();
    sim.run_until(horizon);
    row.after = measure.stretch(net, queries, router).stretch;
    std::printf("  [%s] exchanges=%llu stretch %.3f -> %.3f\n",
                row.label.c_str(),
                static_cast<unsigned long long>(engine.stats().exchanges),
                row.before, row.after);
    rows.push_back(row);
  }

  Table table({"variant", "stretch_before_prop", "stretch_after_prop",
               "improvement"});
  for (const Row& r : rows) {
    table.add_row({r.label, Table::fmt(r.before, 4), Table::fmt(r.after, 4),
                   improvement_factor(r.before, r.after)});
  }
  print_csv_block("combo_pns_pis", table.to_csv());
  std::printf("%s", table.to_ascii().c_str());

  // PNS/PIS start below plain; PROP-G improves (or at worst matches)
  // every variant; the combined result beats each technique alone.
  const Row& plain = rows[0];
  const Row& pns = rows[1];
  const Row& pis = rows[2];
  const Row& pastry_prox = rows[3];
  const Row& tapestry_prox = rows[4];
  const Row& can_plain = rows[5];
  const Row& can_topo = rows[6];
  const bool baselines_help = pns.before < plain.before &&
                              pis.before < plain.before &&
                              can_topo.before < can_plain.before;
  // Identifier-assignment methods (PIS, topo-CAN) leave PROP-G real
  // room; entry-selection methods (PNS, Pastry/Tapestry proximity
  // tables) start near-optimal, so "combination" there means PROP-G
  // must not materially hurt (<2% drift is the paper's own §4.2
  // approximation error: tables stay proximity-optimal for the original
  // placement, and Var only tracks neighbor sums).
  const bool prop_helps_all =
      plain.after < plain.before && pns.after <= pns.before + 1e-6 &&
      pis.after <= pis.before + 1e-6 &&
      pastry_prox.after <= pastry_prox.before * 1.02 &&
      tapestry_prox.after <= tapestry_prox.before * 1.02 &&
      can_plain.after < can_plain.before &&
      can_topo.after <= can_topo.before + 1e-6;
  const bool combos_win = pns.after < plain.before &&
                          pis.after < plain.before &&
                          std::min(pns.after, pis.after) <= plain.after &&
                          can_topo.after < can_plain.before;
  const bool holds = baselines_help && prop_helps_all && combos_win;
  char detail[320];
  std::snprintf(detail, sizeof(detail),
                "plain %.2f->%.2f, PNS %.2f->%.2f, PIS %.2f->%.2f, "
                "CAN %.2f->%.2f, CAN-topo %.2f->%.2f",
                plain.before, plain.after, pns.before, pns.after,
                pis.before, pis.after, can_plain.before, can_plain.after,
                can_topo.before, can_topo.after);
  print_verdict(holds, detail);
  return holds ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
