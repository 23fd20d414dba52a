#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "chord/chord_ring.h"
#include "core/exchange.h"
#include "fixtures.h"
#include "gnutella/gnutella.h"
#include "overlay/isomorphism.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;
using testing::run_rule;

// Draws a random (u, v, path) probe outcome like the engine would.
struct Probe {
  SlotId u;
  SlotId v;
  std::vector<SlotId> path;
};

std::optional<Probe> random_probe(const OverlayNetwork& net, std::size_t nhops,
                                  Rng& rng) {
  const auto slots = net.graph().active_slots();
  const SlotId u = slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
  const auto neigh = net.graph().neighbors(u);
  if (neigh.empty()) return std::nullopt;
  const SlotId first =
      neigh[static_cast<std::size_t>(rng.uniform(neigh.size()))];
  std::vector<SlotId> path;
  if (!net.random_walk(u, first, nhops, rng, path)) return std::nullopt;
  return Probe{u, path.back(), std::move(path)};
}

// A PROP-G plan as PropEngine fills one: no transfer sets, prop_g_var.
ExchangePlan prop_g_plan(const OverlayNetwork& net, SlotId u, SlotId v) {
  ExchangePlan plan;
  plan.mode = PropMode::kPropG;
  plan.u = u;
  plan.v = v;
  plan.var = prop_g_var(net, u, v);
  return plan;
}

// ----------------------------------------------------------- PROP-G ----

TEST(PropG, VarMatchesMeasuredGain) {
  auto fx = UnstructuredFixture::make(40, 2001);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto plan = prop_g_plan(fx.net, probe->u, probe->v);
    EXPECT_NEAR(plan.var, measured_gain(fx.net, plan), 1e-9);
  }
}

TEST(PropG, VarIsSymmetric) {
  auto fx = UnstructuredFixture::make(30, 2002);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    EXPECT_NEAR(prop_g_var(fx.net, probe->u, probe->v),
                prop_g_var(fx.net, probe->v, probe->u), 1e-9);
  }
}

TEST(PropG, SwapOfAdjacentSlotsHandled) {
  auto fx = UnstructuredFixture::make(30, 2003);
  // Find an adjacent pair.
  SlotId u = kInvalidSlot, v = kInvalidSlot;
  for (const SlotId s : fx.net.graph().active_slots()) {
    if (fx.net.graph().degree(s) > 0) {
      u = s;
      v = fx.net.graph().neighbors(s)[0];
      break;
    }
  }
  ASSERT_NE(u, kInvalidSlot);
  const auto plan = prop_g_plan(fx.net, u, v);
  EXPECT_NEAR(plan.var, measured_gain(fx.net, plan), 1e-9);
}

TEST(PropG, ApplyLeavesLogicalGraphUntouched) {
  auto fx = UnstructuredFixture::make(40, 2004);
  const auto degrees_before = fx.net.graph().degree_multiset();
  const std::size_t edges_before = fx.net.graph().edge_count();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    apply_exchange(fx.net, prop_g_plan(fx.net, probe->u, probe->v));
  }
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees_before);
  EXPECT_EQ(fx.net.graph().edge_count(), edges_before);
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

// Theorem 2: the host-labelled overlay stays isomorphic to the original
// under any sequence of PROP-G exchanges.
TEST(PropG, Theorem2IsomorphismUnderExchangeSequences) {
  auto fx = UnstructuredFixture::make(50, 2005);
  const auto edges_before = host_edges(fx.net.graph(), fx.net.placement());
  const Placement placement_before = fx.net.placement();
  Rng rng(4);
  int applied = 0;
  for (int i = 0; i < 200 && applied < 60; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    apply_exchange(fx.net, prop_g_plan(fx.net, probe->u, probe->v));
    ++applied;
  }
  ASSERT_GT(applied, 10);
  const auto edges_after = host_edges(fx.net.graph(), fx.net.placement());
  const auto [hosts, phi] =
      placement_bijection(placement_before, fx.net.placement());
  EXPECT_TRUE(isomorphic_via(edges_before, edges_after, hosts, phi));
}

// Theorem 1 for PROP-G (trivially: graph untouched, but assert anyway).
TEST(PropG, Theorem1ConnectivityPersistence) {
  auto fx = UnstructuredFixture::make(40, 2006);
  Rng rng(5);
  for (int i = 0; i < 80; ++i) {
    const auto probe = random_probe(fx.net, 3, rng);
    if (!probe) continue;
    apply_exchange(fx.net, prop_g_plan(fx.net, probe->u, probe->v));
    ASSERT_TRUE(fx.net.graph().active_subgraph_connected());
  }
}

// ----------------------------------------------------------- PROP-O ----

class PropOSelection : public ::testing::TestWithParam<SelectionPolicy> {};

TEST_P(PropOSelection, VarMatchesMeasuredGain) {
  auto fx = UnstructuredFixture::make(40, 2007);
  Rng rng(6);
  ExchangePlan plan;
  PlanScratch scratch;
  for (int i = 0; i < 150; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    if (!plan_prop_o(plan, scratch, fx.net, probe->u, probe->v, probe->path,
                     2, GetParam(), rng)) {
      continue;
    }
    EXPECT_NEAR(plan.var, measured_gain(fx.net, plan), 1e-9);
  }
}

TEST_P(PropOSelection, TransferSetsRespectConstraints) {
  auto fx = UnstructuredFixture::make(40, 2008);
  Rng rng(7);
  ExchangePlan plan;
  PlanScratch scratch;
  int checked = 0;
  for (int i = 0; i < 200 && checked < 80; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    if (!plan_prop_o(plan, scratch, fx.net, probe->u, probe->v, probe->path,
                     3, GetParam(), rng)) {
      continue;
    }
    ++checked;
    EXPECT_EQ(plan.from_u.size(), plan.from_v.size());
    EXPECT_GE(plan.from_u.size(), 1u);
    EXPECT_LE(plan.from_u.size(), 3u);
    for (const SlotId a : plan.from_u) {
      EXPECT_TRUE(fx.net.graph().has_edge(probe->u, a));
      EXPECT_FALSE(fx.net.graph().has_edge(probe->v, a));
      EXPECT_EQ(std::find(probe->path.begin(), probe->path.end(), a),
                probe->path.end());
    }
    for (const SlotId b : plan.from_v) {
      EXPECT_TRUE(fx.net.graph().has_edge(probe->v, b));
      EXPECT_FALSE(fx.net.graph().has_edge(probe->u, b));
      EXPECT_EQ(std::find(probe->path.begin(), probe->path.end(), b),
                probe->path.end());
    }
  }
  EXPECT_GT(checked, 0);
}

// Degree preservation: PROP-O's defining invariant.
TEST_P(PropOSelection, DegreeMultisetInvariant) {
  auto fx = UnstructuredFixture::make(50, 2009);
  const auto degrees_before = fx.net.graph().degree_multiset();
  // Per-slot degrees must also be unchanged (stronger than the multiset).
  std::vector<std::size_t> per_slot;
  for (const SlotId s : fx.net.graph().active_slots()) {
    per_slot.push_back(fx.net.graph().degree(s));
  }
  Rng rng(8);
  ExchangePlan plan;
  PlanScratch scratch;
  int applied = 0;
  for (int i = 0; i < 300 && applied < 80; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    if (!plan_prop_o(plan, scratch, fx.net, probe->u, probe->v, probe->path,
                     2, GetParam(), rng)) {
      continue;
    }
    apply_exchange(fx.net, plan);
    ++applied;
  }
  ASSERT_GT(applied, 10);
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees_before);
  std::size_t idx = 0;
  for (const SlotId s : fx.net.graph().active_slots()) {
    EXPECT_EQ(fx.net.graph().degree(s), per_slot[idx++]);
  }
}

// Theorem 1: connectivity persists through arbitrary PROP-O sequences.
TEST_P(PropOSelection, Theorem1ConnectivityPersistence) {
  auto fx = UnstructuredFixture::make(50, 2010);
  Rng rng(9);
  ExchangePlan plan;
  PlanScratch scratch;
  int applied = 0;
  for (int i = 0; i < 400 && applied < 120; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    if (!plan_prop_o(plan, scratch, fx.net, probe->u, probe->v, probe->path,
                     4, GetParam(), rng)) {
      continue;
    }
    apply_exchange(fx.net, plan);
    ASSERT_TRUE(fx.net.graph().active_subgraph_connected())
        << "partition after exchange " << applied;
    ++applied;
  }
  ASSERT_GT(applied, 20);
}

INSTANTIATE_TEST_SUITE_P(Policies, PropOSelection,
                         ::testing::Values(SelectionPolicy::kGreedy,
                                           SelectionPolicy::kRandom),
                         [](const auto& info) {
                           return info.param == SelectionPolicy::kGreedy
                                      ? "Greedy"
                                      : "Random";
                         });

TEST(PropO, GreedySelectionMaximizesVarVersusRandom) {
  auto fx = UnstructuredFixture::make(50, 2011);
  Rng rng(10);
  double greedy_sum = 0.0;
  double random_sum = 0.0;
  int count = 0;
  ExchangePlan g;
  ExchangePlan r;
  PlanScratch scratch;
  for (int i = 0; i < 200; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const bool has_g = plan_prop_o(g, scratch, fx.net, probe->u, probe->v,
                                   probe->path, 2, SelectionPolicy::kGreedy,
                                   rng);
    const bool has_r = plan_prop_o(r, scratch, fx.net, probe->u, probe->v,
                                   probe->path, 2, SelectionPolicy::kRandom,
                                   rng);
    if (!has_g || !has_r) continue;
    greedy_sum += g.var;
    random_sum += r.var;
    // Greedy picks the max-gain subsets, so per-probe it dominates.
    EXPECT_GE(g.var, r.var - 1e-9);
    ++count;
  }
  ASSERT_GT(count, 50);
  EXPECT_GT(greedy_sum, random_sum);
}

TEST(PropO, NoTransferableNeighborsYieldsNoPlan) {
  // Overlay: path graph 0-1-2; probing u=0 -> v=2 via path {0,1,2}:
  // u's only neighbor (1) is on the path, so no plan exists.
  Graph phys(3);
  phys.add_edge(0, 1, 1.0);
  phys.add_edge(1, 2, 1.0);
  LatencyOracle oracle(phys);
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Placement p(3, 3);
  for (SlotId s = 0; s < 3; ++s) p.bind(s, s);
  OverlayNetwork net(std::move(g), std::move(p), oracle);
  Rng rng(11);
  const std::vector<SlotId> path{0, 1, 2};
  ExchangePlan plan;
  PlanScratch scratch;
  EXPECT_FALSE(plan_prop_o(plan, scratch, net, 0, 2, path, 2,
                           SelectionPolicy::kGreedy, rng));
}

TEST(PropO, PositiveVarExchangeReducesGlobalLinkLatency) {
  auto fx = UnstructuredFixture::make(60, 2012);
  Rng rng(12);
  ExchangePlan plan;
  PlanScratch scratch;
  for (int i = 0; i < 200; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    if (!plan_prop_o(plan, scratch, fx.net, probe->u, probe->v, probe->path,
                     2, SelectionPolicy::kGreedy, rng) ||
        plan.var <= 0.0) {
      continue;
    }
    const double before = fx.net.average_logical_link_latency();
    apply_exchange(fx.net, plan);
    const double after = fx.net.average_logical_link_latency();
    // Each moved edge (u,a)->(v,a) changes the edge-latency sum by
    // d(v,a)-d(u,a); summed over both disjoint transfer sets that is
    // exactly -var, so positive Var strictly lowers the global mean.
    EXPECT_LT(after, before);
  }
}

// ------------------------------------- PROP-O planning equivalence ----

// The PROP-O planner as it was before each candidate was scored once:
// has_edge filtering, a comparator that re-scores both candidates on
// every comparison, and Var recomputed from the kept sets. Kept verbatim
// as the reference plan_prop_o must match bit for bit.
namespace reference {

std::vector<SlotId> transferable_neighbors(const OverlayNetwork& net,
                                           SlotId self, SlotId other,
                                           std::span<const SlotId> path) {
  std::vector<SlotId> out;
  for (const SlotId x : net.graph().neighbors(self)) {
    if (x == other) continue;
    if (std::find(path.begin(), path.end(), x) != path.end()) continue;
    if (net.graph().has_edge(other, x)) continue;
    out.push_back(x);
  }
  return out;
}

void select_greedy(const OverlayNetwork& net, SlotId self, SlotId other,
                   std::vector<SlotId>& candidates, std::size_t k) {
  std::sort(candidates.begin(), candidates.end(),
            [&](SlotId a, SlotId b) {
              const double gain_a =
                  net.slot_latency(self, a) - net.slot_latency(other, a);
              const double gain_b =
                  net.slot_latency(self, b) - net.slot_latency(other, b);
              if (gain_a != gain_b) return gain_a > gain_b;
              return a < b;  // deterministic tie-break
            });
  candidates.resize(k);
}

void select_random(std::vector<SlotId>& candidates, std::size_t k, Rng& rng) {
  rng.shuffle(candidates);
  candidates.resize(k);
  std::sort(candidates.begin(), candidates.end());
}

std::optional<ExchangePlan> plan_prop_o(const OverlayNetwork& net, SlotId u,
                                        SlotId v, std::span<const SlotId> path,
                                        std::size_t m,
                                        SelectionPolicy selection, Rng& rng) {
  std::vector<SlotId> from_u = transferable_neighbors(net, u, v, path);
  std::vector<SlotId> from_v = transferable_neighbors(net, v, u, path);
  const std::size_t k = std::min({m, from_u.size(), from_v.size()});
  if (k == 0) return std::nullopt;

  switch (selection) {
    case SelectionPolicy::kGreedy:
      select_greedy(net, u, v, from_u, k);
      select_greedy(net, v, u, from_v, k);
      break;
    case SelectionPolicy::kRandom:
      select_random(from_u, k, rng);
      select_random(from_v, k, rng);
      break;
  }

  ExchangePlan plan;
  plan.mode = PropMode::kPropO;
  plan.u = u;
  plan.v = v;
  plan.from_u = std::move(from_u);
  plan.from_v = std::move(from_v);

  double var = 0.0;
  for (const SlotId a : plan.from_u) {
    var += net.slot_latency(u, a) - net.slot_latency(v, a);
  }
  for (const SlotId b : plan.from_v) {
    var += net.slot_latency(v, b) - net.slot_latency(u, b);
  }
  plan.var = var;
  return plan;
}

}  // namespace reference

/// A physical star of stars: hosts hang off one of two hubs joined by a
/// unit link. With unit spokes host-to-host latency is 2 (same hub) or 3
/// (across), so greedy gains tie often and the slot-id tie-break decides
/// the order. With random fractional spokes latencies are not integers,
/// so sums round and Var's summation order shows in its bits (the
/// transit-stub fixtures use integral link latencies, whose sums are
/// exact in any order).
struct TwoHubWorld {
  Graph phys;
  std::unique_ptr<LatencyOracle> oracle;
  std::vector<NodeId> hosts;

  TwoHubWorld(std::size_t n, Rng* spoke_rng) : phys(n + 2) {
    phys.add_edge(0, 1, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto h = static_cast<NodeId>(i + 2);
      const double w = spoke_rng ? spoke_rng->uniform_double(0.1, 50.0) : 1.0;
      phys.add_edge(static_cast<NodeId>(i % 2), h, w);
      hosts.push_back(h);
    }
    oracle = std::make_unique<LatencyOracle>(phys);
  }

  OverlayNetwork gnutella(std::size_t attach_links, std::uint64_t seed) {
    Rng rng(seed);
    GnutellaConfig cfg;
    cfg.attach_links = attach_links;
    return build_gnutella_overlay(cfg, hosts, *oracle, rng);
  }
};

/// Plans `probe` at (m, policy) with both planners and requires
/// identical transfer sets (same order) and Var bits. Random selection
/// runs each planner on its own copy of one RNG state, so both draw the
/// same shuffle; `rng` then advances to a fresh state. The plan and
/// scratch are the caller's, reused across calls. Returns the plan.
std::optional<ExchangePlan> expect_plan_matches(const OverlayNetwork& net,
                                                const Probe& probe,
                                                std::size_t m,
                                                SelectionPolicy policy,
                                                Rng& rng, ExchangePlan& got,
                                                PlanScratch& scratch) {
  Rng want_rng = rng;
  Rng got_rng = rng;
  const auto want = reference::plan_prop_o(net, probe.u, probe.v, probe.path,
                                           m, policy, want_rng);
  const bool planned = plan_prop_o(got, scratch, net, probe.u, probe.v,
                                   probe.path, m, policy, got_rng);
  rng.next();
  EXPECT_EQ(planned, want.has_value()) << "m=" << m;
  if (!planned || !want) return std::nullopt;
  EXPECT_EQ(got.from_u, want->from_u) << "m=" << m;
  EXPECT_EQ(got.from_v, want->from_v) << "m=" << m;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.var),
            std::bit_cast<std::uint64_t>(want->var))
      << "m=" << m << " var " << got.var << " vs " << want->var;
  EXPECT_EQ(got_rng.next(), want_rng.next());
  return got;
}

/// Plans every (m, policy) variant of `probe` with both planners, for m
/// in {1, 2, 4, deg u, 1000}; 1000 is above both degrees, so k is bound
/// by the smaller transferable set. Returns the greedy plan at m = 2.
std::optional<ExchangePlan> expect_plans_match(const OverlayNetwork& net,
                                               const Probe& probe,
                                               Rng& rng) {
  const std::size_t degree = net.graph().degree(probe.u);
  std::optional<ExchangePlan> greedy_m2;
  ExchangePlan got;
  PlanScratch scratch;
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              degree, std::size_t{1000}}) {
    for (const SelectionPolicy policy :
         {SelectionPolicy::kGreedy, SelectionPolicy::kRandom}) {
      auto plan = expect_plan_matches(net, probe, m, policy, rng, got,
                                      scratch);
      if (m == 2 && policy == SelectionPolicy::kGreedy) greedy_m2 = plan;
    }
  }
  return greedy_m2;
}

/// Runs `probes` seeded probes on `net`, comparing the planners on each;
/// positive-Var greedy plans are applied so the overlay keeps evolving.
/// Returns how many probes yielded a plan.
int compare_planners(OverlayNetwork& net, int probes, std::uint64_t seed) {
  Rng rng(seed);
  int planned = 0;
  for (int i = 0; i < probes; ++i) {
    const std::size_t nhops = 2 + static_cast<std::size_t>(rng.uniform(2));
    const auto probe = random_probe(net, nhops, rng);
    if (!probe) continue;
    const auto plan = expect_plans_match(net, *probe, rng);
    if (!plan) continue;
    ++planned;
    if (plan->var > 0.0) apply_exchange(net, *plan);
  }
  return planned;
}

TEST(PropOPlanEquivalence, MatchesComparatorPlannerOnGnutellaOverlays) {
  int planned = 0;
  for (const auto& [seed, attach] :
       {std::pair<std::uint64_t, std::size_t>{3001, 3}, {3002, 4},
        {3003, 6}}) {
    auto fx = UnstructuredFixture::make(80, seed, attach);
    planned += compare_planners(fx.net, 400, seed + 1);
  }
  EXPECT_GE(planned, 1000);
}

TEST(PropOPlanEquivalence, TiedGainsBreakOnSlotId) {
  TwoHubWorld world(60, nullptr);
  OverlayNetwork net = world.gnutella(5, 3101);

  // The world must actually produce ties among transferable candidates.
  Rng rng(3102);
  int tied = 0;
  for (int i = 0; i < 200; ++i) {
    const auto probe = random_probe(net, 2, rng);
    if (!probe) continue;
    std::set<double> gains;
    const auto cands = reference::transferable_neighbors(net, probe->u,
                                                         probe->v, probe->path);
    for (const SlotId c : cands) {
      gains.insert(net.slot_latency(probe->u, c) -
                   net.slot_latency(probe->v, c));
    }
    if (gains.size() < cands.size()) ++tied;
  }
  ASSERT_GT(tied, 50);

  EXPECT_GE(compare_planners(net, 500, 3103), 300);
}

TEST(PropOPlanEquivalence, FractionalLatenciesKeepVarBits) {
  Rng spokes(3201);
  TwoHubWorld world(80, &spokes);
  OverlayNetwork net = world.gnutella(4, 3202);
  EXPECT_GE(compare_planners(net, 500, 3203), 300);
}

/// Probes between the highest-degree slots, through a common neighbour:
/// the 2-hop walk's heavy tail, where both sides have many candidates.
TEST(PropOPlanEquivalence, HubToHubProbesMatch) {
  int planned = 0;
  for (const auto& [seed, attach] :
       {std::pair<std::uint64_t, std::size_t>{3301, 4}, {3302, 8}}) {
    auto fx = UnstructuredFixture::make(80, seed, attach);
    const LogicalGraph& g = fx.net.graph();
    std::vector<SlotId> hubs = g.active_slots();
    std::sort(hubs.begin(), hubs.end(), [&](SlotId a, SlotId b) {
      return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
    });
    hubs.resize(12);
    ASSERT_GE(g.degree(hubs.back()), 2 * attach);
    Rng rng(seed + 1);
    for (const SlotId u : hubs) {
      for (const SlotId v : hubs) {
        if (u == v) continue;
        const auto nu = g.neighbors(u);
        const auto w = std::find_if(nu.begin(), nu.end(), [&](SlotId x) {
          return x != v && g.has_edge(x, v);
        });
        if (w == nu.end()) continue;
        if (expect_plans_match(fx.net, Probe{u, v, {u, *w, v}}, rng)) {
          ++planned;
        }
      }
    }
  }
  EXPECT_GE(planned, 200);
}

/// m strictly between the two transferable set sizes, either way round:
/// k is bound by the other side, so one side keeps fewer than m.
TEST(PropOPlanEquivalence, KBoundByTheOtherSide) {
  int v_binds = 0;  // |from_v| < m < |from_u|
  int u_binds = 0;  // |from_u| < m < |from_v|
  ExchangePlan got;
  PlanScratch scratch;
  for (const auto& [seed, attach] :
       {std::pair<std::uint64_t, std::size_t>{3401, 3}, {3402, 6}}) {
    auto fx = UnstructuredFixture::make(80, seed, attach);
    Rng rng(seed + 1);
    for (int i = 0; i < 600; ++i) {
      const auto probe = random_probe(fx.net, 2, rng);
      if (!probe) continue;
      const std::size_t n_u = reference::transferable_neighbors(
                                  fx.net, probe->u, probe->v, probe->path)
                                  .size();
      const std::size_t n_v = reference::transferable_neighbors(
                                  fx.net, probe->v, probe->u, probe->path)
                                  .size();
      const std::size_t lo = std::min(n_u, n_v);
      if (lo == 0 || lo + 1 >= std::max(n_u, n_v)) continue;
      ++(n_v < n_u ? v_binds : u_binds);
      for (const SelectionPolicy policy :
           {SelectionPolicy::kGreedy, SelectionPolicy::kRandom}) {
        const auto plan = expect_plan_matches(fx.net, *probe, lo + 1, policy,
                                              rng, got, scratch);
        ASSERT_TRUE(plan.has_value());
        EXPECT_EQ(plan->from_u.size(), lo);
      }
    }
  }
  EXPECT_GE(v_binds, 200);
  EXPECT_GE(u_binds, 400);
}

/// A hand-built exchange whose candidates tie the worst kept gain. Slots
/// hang off one of two hubs one unit apart, with unit spokes, so a
/// candidate on v's hub gains 1 for u and one on u's hub gains -1. u's
/// candidates arrive as 8 (gain 1), then 7, 6, 3, 5 (gain -1): at m = 2,
/// 6 and then 3 tie the worst kept gain with a smaller slot id and each
/// must displace it, while 5 ties with a larger id and must not. v's
/// candidates 10, 9, 4 all gain 1 and arrive in descending slot order.
TEST(PropOPlanEquivalence, TiedCandidateWithSmallerSlotDisplacesWorstKept) {
  constexpr std::size_t kSlots = 11;
  const std::vector<int> hub = {0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0};
  Graph phys(kSlots + 2);
  phys.add_edge(0, 1, 1.0);
  for (std::size_t s = 0; s < kSlots; ++s) {
    phys.add_edge(static_cast<NodeId>(hub[s]), static_cast<NodeId>(s + 2),
                  1.0);
  }
  LatencyOracle oracle(phys);
  LogicalGraph g(kSlots);
  // The probe path u=0, w=2, v=1, then each side's candidates in order.
  for (const auto& [a, b] : std::vector<std::pair<SlotId, SlotId>>{
           {0, 2}, {2, 1}, {0, 8}, {0, 7}, {0, 6}, {0, 3}, {0, 5},
           {1, 10}, {1, 9}, {1, 4}}) {
    g.add_edge(a, b);
  }
  Placement p(kSlots, kSlots + 2);
  for (SlotId s = 0; s < kSlots; ++s) p.bind(s, static_cast<NodeId>(s + 2));
  OverlayNetwork net(std::move(g), std::move(p), oracle);

  const Probe probe{0, 1, {0, 2, 1}};
  Rng rng(3501);
  ExchangePlan plan;
  PlanScratch scratch;
  ASSERT_TRUE(plan_prop_o(plan, scratch, net, probe.u, probe.v, probe.path,
                          2, SelectionPolicy::kGreedy, rng));
  EXPECT_EQ(plan.from_u, (std::vector<SlotId>{8, 3}));
  EXPECT_EQ(plan.from_v, (std::vector<SlotId>{4, 9}));
  EXPECT_EQ(plan.var, 2.0);
  for (std::size_t m = 1; m <= 4; ++m) {
    expect_plan_matches(net, probe, m, SelectionPolicy::kGreedy, rng, plan,
                        scratch);
  }
}

/// Totals of a reuse_against_reference run.
struct ReuseTally {
  int walks = 0;
  int planned = 0;
  int shrunk = 0;  // plans whose sets were shorter than the previous ones
  int commits = 0;
};

/// Runs `attempts` seeded probes through one walk buffer, ExchangePlan
/// and PlanScratch shared with every earlier call, as PropEngine reuses
/// its members. Each walk must equal a walk into a fresh vector from the
/// same RNG state; each plan must equal reference::plan_prop_o (sets,
/// order, Var bits). m cycles through 1, 2, 4 and the policy alternates,
/// so a plan often follows one with longer sets. Every 30th attempt
/// commits the next plan, about prop_o_day's 3.4% exchange ratio.
void reuse_against_reference(OverlayNetwork& net, int attempts,
                             std::uint64_t seed, std::vector<SlotId>& walk,
                             ExchangePlan& plan, PlanScratch& scratch,
                             ReuseTally& tally) {
  Rng rng(seed);
  bool commit_due = false;
  for (int i = 0; i < attempts; ++i) {
    const auto slots = net.graph().active_slots();
    const SlotId u =
        slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    const auto neigh = net.graph().neighbors(u);
    if (neigh.empty()) continue;
    const SlotId first =
        neigh[static_cast<std::size_t>(rng.uniform(neigh.size()))];
    const std::size_t nhops = 2 + static_cast<std::size_t>(rng.uniform(3));

    Rng fresh_rng = rng;
    std::vector<SlotId> fresh;
    const bool fresh_reached =
        net.random_walk(u, first, nhops, fresh_rng, fresh);
    const bool reached = net.random_walk(u, first, nhops, rng, walk);
    ++tally.walks;
    ASSERT_EQ(reached, fresh_reached) << "attempt " << i;
    ASSERT_EQ(walk, fresh) << "attempt " << i;
    ASSERT_EQ(rng.next(), fresh_rng.next()) << "attempt " << i;
    if (!reached) continue;

    const SlotId v = walk.back();
    const std::size_t m = std::size_t{1} << (i % 3);
    const SelectionPolicy policy = (i / 3) % 2 == 0
                                       ? SelectionPolicy::kGreedy
                                       : SelectionPolicy::kRandom;
    const std::size_t previous = plan.from_u.size() + plan.from_v.size();
    Rng want_rng = rng;
    const auto want =
        reference::plan_prop_o(net, u, v, walk, m, policy, want_rng);
    const bool planned =
        plan_prop_o(plan, scratch, net, u, v, walk, m, policy, rng);
    ASSERT_EQ(planned, want.has_value()) << "attempt " << i;
    ASSERT_EQ(rng.next(), want_rng.next()) << "attempt " << i;
    if (!planned) continue;
    ++tally.planned;
    if (plan.from_u.size() + plan.from_v.size() < previous) ++tally.shrunk;
    EXPECT_EQ(plan.mode, PropMode::kPropO);
    EXPECT_EQ(plan.u, u);
    EXPECT_EQ(plan.v, v);
    EXPECT_EQ(plan.from_u, want->from_u) << "attempt " << i << " m=" << m;
    EXPECT_EQ(plan.from_v, want->from_v) << "attempt " << i << " m=" << m;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.var),
              std::bit_cast<std::uint64_t>(want->var))
        << "attempt " << i << " var " << plan.var << " vs " << want->var;

    if (i % 30 == 0) commit_due = true;
    if (commit_due) {
      apply_exchange(net, plan);
      commit_due = false;
      ++tally.commits;
    }
  }
}

TEST(PropOPlanEquivalence, ReusedBuffersMatchReferenceOnGnutella) {
  std::vector<SlotId> walk;
  ExchangePlan plan;
  PlanScratch scratch;
  ReuseTally tally;
  for (const auto& [seed, attach] :
       {std::pair<std::uint64_t, std::size_t>{3701, 3}, {3702, 5},
        {3703, 8}}) {
    auto fx = UnstructuredFixture::make(80, seed, attach);
    reuse_against_reference(fx.net, 900, seed + 1, walk, plan, scratch,
                            tally);
  }
  Rng spokes(3704);
  TwoHubWorld world(100, &spokes);
  OverlayNetwork net = world.gnutella(4, 3705);
  reuse_against_reference(net, 900, 3706, walk, plan, scratch, tally);

  EXPECT_GE(tally.planned, 3000);
  EXPECT_GE(tally.shrunk, 800);
  EXPECT_GE(tally.commits, 100);
  EXPECT_GE(tally.walks, 3000);
}

// ------------------------------------- PROP-G Var equivalence ----

// prop_g_var as it was before neighbor_latency_sum was memoised: both
// endpoints' current sums recomputed on every call. Kept verbatim as the
// reference the memoised Var must match bit for bit.
namespace reference {

double neighbor_latency_sum(const OverlayNetwork& net, SlotId s) {
  double sum = 0.0;
  for (const SlotId v : net.graph().neighbors(s)) {
    sum += net.slot_latency(s, v);
  }
  return sum;
}

double prop_g_var(const OverlayNetwork& net, SlotId u, SlotId v) {
  const LatencyOracle& oracle = net.oracle();
  const NodeId host_u = net.placement().host_of(u);
  const NodeId host_v = net.placement().host_of(v);
  const double before =
      neighbor_latency_sum(net, u) + neighbor_latency_sum(net, v);
  double after = 0.0;
  for (const SlotId i : net.graph().neighbors(v)) {
    const NodeId hi = (i == u) ? host_v : net.placement().host_of(i);
    after += oracle.latency(host_u, hi);
  }
  for (const SlotId i : net.graph().neighbors(u)) {
    const NodeId hi = (i == v) ? host_u : net.placement().host_of(i);
    after += oracle.latency(host_v, hi);
  }
  return before - after;
}

}  // namespace reference

/// Runs `probes` seeded walk probes and requires every PROP-G Var to
/// match the reference bit for bit. Every 40th probe commits its swap,
/// about chord_day's commit rate, so memoised sums go stale between
/// queries as they do in a run. Returns the probes compared.
int compare_prop_g(OverlayNetwork& net, int probes, std::uint64_t seed) {
  Rng rng(seed);
  int compared = 0;
  for (int i = 0; i < probes; ++i) {
    const auto probe = random_probe(net, 2, rng);
    if (!probe) continue;
    const double want = reference::prop_g_var(net, probe->u, probe->v);
    const ExchangePlan plan = prop_g_plan(net, probe->u, probe->v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(plan.var),
              std::bit_cast<std::uint64_t>(want))
        << "probe " << i << ": " << plan.var << " vs " << want;
    if (++compared % 40 == 0) apply_exchange(net, plan);
  }
  return compared;
}

OverlayNetwork chord_overlay(std::span<const NodeId> hosts,
                             const LatencyOracle& oracle, Rng& rng) {
  const ChordRing ring =
      ChordRing::build_random(hosts.size(), ChordConfig{}, rng);
  return make_chord_overlay(ring, hosts, oracle);
}

TEST(PropGVarEquivalence, ChordOnHierarchicalTransitStub) {
  Rng rng(3301);
  const TransitStubTopology topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  const LatencyOracle oracle(topo);
  ASSERT_TRUE(oracle.hierarchical());
  std::vector<NodeId> hosts;
  for (const std::size_t i : rng.sample_indices(topo.stub_nodes.size(), 80)) {
    hosts.push_back(topo.stub_nodes[i]);
  }
  OverlayNetwork net = chord_overlay(hosts, oracle, rng);
  EXPECT_GE(compare_prop_g(net, 1200, 3302), 1000);
}

TEST(PropGVarEquivalence, ChordOnFractionalLatencies) {
  Rng spokes(3401);
  TwoHubWorld world(80, &spokes);
  Rng rng(3402);
  OverlayNetwork net = chord_overlay(world.hosts, *world.oracle, rng);
  EXPECT_GE(compare_prop_g(net, 1200, 3403), 1000);
}

TEST(PropGVarEquivalence, GnutellaOnTransitStub) {
  auto fx = UnstructuredFixture::make(80, 3501, 4);
  EXPECT_GE(compare_prop_g(fx.net, 1200, 3502), 1000);
}

TEST(PropGVarEquivalence, GnutellaOnFractionalLatencies) {
  Rng spokes(3601);
  TwoHubWorld world(80, &spokes);
  OverlayNetwork net = world.gnutella(4, 3602);
  EXPECT_GE(compare_prop_g(net, 1200, 3603), 1000);
}

}  // namespace
}  // namespace propsim
