// Every overlay mutator, driven the way the engines drive it: PROP-O and
// PROP-G exchanges, churn joins, leaves (the cut-vertex rollback
// included) and crashes with survivor repair, LTM rounds and selfish
// steps. After each step every stored edge weight must equal a probe
// bit for bit, and the three flood paths must agree bit for bit, with
// and without an open partition window: the Dial flood over the live
// overlay (targeted, as live lookups run it), the Dial flood over a
// fresh snapshot, and the probing heap flood. Every run goes once over
// a Dijkstra-row oracle and once over the hierarchical one, under which
// the targeted live flood is an oracle-guided A* search.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/ltm.h"
#include "baselines/selfish.h"
#include "core/exchange.h"
#include "faults/fault_plan.h"
#include "fixtures.h"
#include "measure/measure_engine.h"
#include "measure/overlay_snapshot.h"
#include "sim/scheduler.h"
#include "workload/churn.h"

namespace propsim {
namespace {

using testing::OracleEngine;
using testing::UnstructuredFixture;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_weights_fresh(const OverlayNetwork& net, int step) {
  const LogicalGraph& g = net.graph();
  for (SlotId s = 0; s < g.slot_count(); ++s) {
    const auto neighbors = g.neighbors(s);
    const auto weights = net.neighbor_latencies(s);
    ASSERT_EQ(weights.size(), neighbors.size())
        << "step " << step << " slot " << s;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      ASSERT_EQ(bits(weights[i]), bits(net.slot_latency(s, neighbors[i])))
          << "step " << step << " slot " << s << " entry " << i;
    }
  }
}

/// One seeded run: an overlay on the tiny transit-stub world, a churn
/// process over the unused stub hosts, and a fault plan whose partition
/// window around one stub domain is open from time 0 on. The overlay
/// starts as a tree (one attach link per peer), so most early leaves
/// pick a cut vertex and churn rolls them back.
class MutationRun {
 public:
  MutationRun(std::uint64_t seed, OracleEngine engine)
      : fx_(UnstructuredFixture::make(48, seed, /*attach_links=*/1, engine)),
        rng_(seed + 1),
        faults_(sim_, partition_params(fx_), seed + 2),
        churn_(fx_.net, sim_, /*engine=*/nullptr, gnutella_config(),
               ChurnParams{}, spare_hosts(fx_), seed + 3) {
    std::vector<std::uint32_t> host_domain(fx_.topo.graph.node_count(),
                                           FaultInjector::kNoDomain);
    for (const NodeId h : fx_.topo.stub_nodes) {
      host_domain[h] = fx_.topo.domain[h];
    }
    faults_.set_host_domains(std::move(host_domain));
    churn_.set_faults(&faults_);
    cut_ = [this](SlotId a, SlotId b) {
      const Placement& p = fx_.net.placement();
      return !faults_.partitioned(p.host_of(a), p.host_of(b));
    };
  }

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      mutate();
      expect_weights_fresh(fx_.net, step);
      if (::testing::Test::HasFatalFailure()) return;
      if (step % 4 == 0) expect_floods_agree(step);
    }
  }

  std::uint64_t joins() const { return churn_.joins(); }
  std::uint64_t leaves() const { return churn_.leaves(); }
  std::uint64_t failures() const { return churn_.failures(); }
  std::uint64_t exchanges() const { return exchanges_; }
  std::uint64_t pruned_edges() const { return pruned_edges_; }

 private:
  static GnutellaConfig gnutella_config() {
    GnutellaConfig c;
    c.attach_links = 2;
    return c;
  }

  static FaultParams partition_params(const UnstructuredFixture& fx) {
    FaultParams p;
    const NodeId host = fx.net.placement().host_of(0);
    p.partitions.push_back({fx.topo.domain[host], 0.0, 1e9});
    return p;
  }

  static std::vector<NodeId> spare_hosts(const UnstructuredFixture& fx) {
    std::vector<NodeId> spares;
    for (const NodeId h : fx.topo.stub_nodes) {
      if (!fx.net.placement().host_bound(h)) spares.push_back(h);
    }
    return spares;
  }

  SlotId random_slot() {
    return rng_.pick(fx_.net.graph().active_slots());
  }

  void prop_o(SelectionPolicy selection) {
    const SlotId u = random_slot();
    const auto neighbors = fx_.net.graph().neighbors(u);
    if (neighbors.empty()) return;
    const SlotId first = rng_.pick(neighbors);
    if (!fx_.net.random_walk(u, first, 2, rng_, path_)) return;
    if (!plan_prop_o(plan_, scratch_, fx_.net, u, path_.back(), path_, 2,
                     selection, rng_)) {
      return;
    }
    apply_exchange(fx_.net, plan_);
    ++exchanges_;
  }

  void mutate() {
    OverlayNetwork& net = fx_.net;
    switch (rng_.uniform(9)) {
      case 0:
        prop_o(SelectionPolicy::kGreedy);
        break;
      case 1:
        prop_o(SelectionPolicy::kRandom);
        break;
      case 2: {
        const SlotId u = random_slot();
        const SlotId v = random_slot();
        if (u == v) break;
        apply_exchange(net, {PropMode::kPropG, u, v, {}, {},
                             prop_g_var(net, u, v)});
        ++exchanges_;
        break;
      }
      case 3:
        churn_.do_join();
        break;
      case 4:
        churn_.do_leave();
        break;
      case 5:
        churn_.do_fail();
        break;
      case 6:
        ltm_round(net, random_slot());
        break;
      case 7:
        selfish_step(net, random_slot(), rng_);
        break;
      default: {  // a second PROP-G swap: the common commit in a run
        const SlotId u = random_slot();
        const SlotId v = random_slot();
        if (u != v) net.swap_hosts(u, v);
        break;
      }
    }
  }

  void expect_floods_agree(int step) {
    const OverlayNetwork& net = fx_.net;
    std::vector<double> delays(net.graph().slot_count());
    for (double& d : delays) d = rng_.uniform_double(0.0, 3.0);
    const OverlayNetwork::LinkFilter* const filters[] = {nullptr, &cut_};
    const std::vector<double>* const procs[] = {nullptr, &delays};
    for (const OverlayNetwork::LinkFilter* filter : filters) {
      const OverlaySnapshot snap = OverlaySnapshot::capture(net, filter);
      pruned_edges_ += 2 * net.graph().edge_count() - snap.edge_count();
      for (const std::vector<double>* proc : procs) {
        for (int q = 0; q < 6; ++q) {
          const SlotId src = random_slot();
          const SlotId dst = random_slot();
          flood_overlay(net, filter, src, proc, live_, {&dst, 1});
          flood_snapshot(snap, src, proc, captured_);
          const double heap =
              net.flood_latencies_into(heap_, src, proc, filter)[dst];
          ASSERT_EQ(bits(live_.distance(dst)), bits(heap))
              << "step " << step << " " << src << "->" << dst;
          ASSERT_EQ(bits(captured_.distance(dst)), bits(heap))
              << "step " << step << " " << src << "->" << dst;
        }
      }
    }
  }

  UnstructuredFixture fx_;
  Rng rng_;
  Scheduler sim_;
  FaultInjector faults_;
  ChurnProcess churn_;
  OverlayNetwork::LinkFilter cut_;
  std::vector<SlotId> path_;
  ExchangePlan plan_;
  PlanScratch scratch_;
  MeasureScratch live_;
  MeasureScratch captured_;
  OverlayNetwork::FloodScratch heap_;
  std::uint64_t exchanges_ = 0;
  std::uint64_t pruned_edges_ = 0;
};

TEST(OverlayMutations, StoredWeightsAndFloodsHoldThroughEveryMutator) {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t failures = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t pruned_edges = 0;
  for (const OracleEngine engine :
       {OracleEngine::kRows, OracleEngine::kHierarchical}) {
    for (std::uint64_t seed = 8101; seed < 8105; ++seed) {
      MutationRun run(seed, engine);
      run.run(300);
      if (HasFatalFailure()) return;
      joins += run.joins();
      leaves += run.leaves();
      failures += run.failures();
      exchanges += run.exchanges();
      pruned_edges += run.pruned_edges();
    }
  }
  // Every mutator actually fired, and the open window pruned edges, so
  // the filtered floods differ from the unfiltered ones.
  EXPECT_GT(joins, 0u);
  EXPECT_GT(leaves, 0u);
  EXPECT_GT(failures, 0u);
  EXPECT_GT(exchanges, 0u);
  EXPECT_GT(pruned_edges, 0u);
}

}  // namespace
}  // namespace propsim
