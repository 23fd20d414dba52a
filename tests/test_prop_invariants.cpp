// Cross-substrate property suite: the PROP theorems, checked on every
// overlay substrate and across parameter sweeps (parameterized gtest).
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "fixtures.h"
#include "gnutella/gnutella.h"
#include "overlay/isomorphism.h"
#include "pastry/pastry.h"
#include "sim/scheduler.h"
#include "tapestry/tapestry.h"
#include "workload/host_selection.h"

namespace propsim {
namespace {

enum class Substrate { kGnutella, kChord, kPastry, kTapestry, kCan };

const char* substrate_name(Substrate s) {
  switch (s) {
    case Substrate::kGnutella:
      return "Gnutella";
    case Substrate::kChord:
      return "Chord";
    case Substrate::kPastry:
      return "Pastry";
    case Substrate::kTapestry:
      return "Tapestry";
    case Substrate::kCan:
      return "Can";
  }
  return "?";
}

/// World + overlay bundle for a given substrate.
struct Bundle {
  TransitStubTopology topo;
  std::unique_ptr<LatencyOracle> oracle;
  std::unique_ptr<OverlayNetwork> net;
};

Bundle make_bundle(Substrate substrate, std::size_t n, std::uint64_t seed) {
  Bundle b;
  Rng rng(seed);
  b.topo = make_transit_stub(testing::tiny_transit_stub_config(), rng);
  b.oracle = std::make_unique<LatencyOracle>(b.topo.graph);
  const auto hosts = select_stub_hosts(b.topo, n, rng);
  switch (substrate) {
    case Substrate::kGnutella: {
      GnutellaConfig cfg;
      b.net = std::make_unique<OverlayNetwork>(
          build_gnutella_overlay(cfg, hosts, *b.oracle, rng));
      break;
    }
    case Substrate::kChord: {
      const auto ring = ChordRing::build_random(n, ChordConfig{}, rng);
      b.net = std::make_unique<OverlayNetwork>(
          make_chord_overlay(ring, hosts, *b.oracle));
      break;
    }
    case Substrate::kPastry: {
      const auto pastry = PastryNetwork::build_random(n, PastryConfig{}, rng);
      b.net = std::make_unique<OverlayNetwork>(
          make_pastry_overlay(pastry, hosts, *b.oracle));
      break;
    }
    case Substrate::kTapestry: {
      const auto tapestry =
          TapestryNetwork::build_random(n, TapestryConfig{}, rng);
      b.net = std::make_unique<OverlayNetwork>(
          make_tapestry_overlay(tapestry, hosts, *b.oracle));
      break;
    }
    case Substrate::kCan: {
      const auto space = CanSpace::build(n, rng);
      b.net = std::make_unique<OverlayNetwork>(
          make_can_overlay(space, hosts, *b.oracle));
      break;
    }
  }
  return b;
}

// -------------------------- PROP-G invariants on every substrate ----

class PropGSubstrate
    : public ::testing::TestWithParam<std::tuple<Substrate, std::size_t>> {};

TEST_P(PropGSubstrate, EngineRunPreservesStructureAndImproves) {
  const auto [substrate, nhops] = GetParam();
  Bundle b = make_bundle(substrate, 48, 9100 + nhops);
  OverlayNetwork& net = *b.net;

  const auto degrees = net.graph().degree_multiset();
  const std::size_t edges = net.graph().edge_count();
  const auto edges_before = host_edges(net.graph(), net.placement());
  const Placement placement_before = net.placement();
  const double latency_before = net.average_logical_link_latency();

  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropG;
  params.nhops = nhops;
  params.init_timer_s = 10.0;
  PropEngine engine(net, sim, params, 17 + nhops);
  engine.start();
  sim.run_until(1500.0);

  // Structure identical: same logical graph object state.
  EXPECT_EQ(net.graph().degree_multiset(), degrees);
  EXPECT_EQ(net.graph().edge_count(), edges);
  EXPECT_TRUE(net.graph().active_subgraph_connected());
  EXPECT_TRUE(net.placement().validate());

  // Theorem 2 certificate at host level.
  const auto [hosts, phi] =
      placement_bijection(placement_before, net.placement());
  EXPECT_TRUE(isomorphic_via(edges_before,
                             host_edges(net.graph(), net.placement()), hosts,
                             phi));

  // Optimization actually happened.
  EXPECT_GT(engine.stats().exchanges, 0u)
      << substrate_name(substrate) << " nhops=" << nhops;
  EXPECT_LT(net.average_logical_link_latency(), latency_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstratesAndTtls, PropGSubstrate,
    ::testing::Combine(::testing::Values(Substrate::kGnutella,
                                         Substrate::kChord,
                                         Substrate::kPastry,
                                         Substrate::kTapestry,
                                         Substrate::kCan),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3})),
    [](const auto& info) {
      std::string name = substrate_name(std::get<0>(info.param));
      name += "_nhops";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ------------------------------ PROP-O invariants across m sweep ----

class PropOParamSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(PropOParamSweep, DegreeAndConnectivityInvariants) {
  const auto [m, attach] = GetParam();
  auto fx = testing::UnstructuredFixture::make(56, 9200 + m * 10 + attach,
                                               attach);
  OverlayNetwork& net = fx.net;
  const auto degrees = net.graph().degree_multiset();
  const double latency_before = net.average_logical_link_latency();

  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropO;
  params.m = m;
  params.init_timer_s = 10.0;
  PropEngine engine(net, sim, params, 23);
  engine.start();
  sim.run_until(1500.0);

  EXPECT_EQ(net.graph().degree_multiset(), degrees);
  EXPECT_TRUE(net.graph().active_subgraph_connected());
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(net.average_logical_link_latency(), latency_before);
  // Exchange size clamps at m (or delta(G) when m = 0).
  const std::size_t expected =
      m == 0 ? net.graph().min_active_degree() : m;
  EXPECT_EQ(engine.exchange_size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    MTimesAttach, PropOParamSweep,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{4}),
                       ::testing::Values(std::size_t{3}, std::size_t{5})),
    [](const auto& info) {
      std::string name = "m";
      name += std::to_string(std::get<0>(info.param));
      name += "_attach";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// -------------------- Var sign == measured gain sign, all modes ----

class VarConsistency : public ::testing::TestWithParam<Substrate> {};

TEST_P(VarConsistency, PlannedVarEqualsMeasuredGain) {
  Bundle b = make_bundle(GetParam(), 40, 9300);
  OverlayNetwork& net = *b.net;
  Rng rng(29);
  const auto slots = net.graph().active_slots();
  int checked = 0;
  for (int i = 0; i < 200 && checked < 80; ++i) {
    const SlotId u =
        slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    SlotId v;
    do {
      v = slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    } while (v == u);
    const auto plan = plan_prop_g(net, u, v);
    EXPECT_NEAR(plan.var, measured_gain(net, plan), 1e-9);
    // Committing positive-Var plans keeps the invariant chain honest.
    if (plan.var > 0) {
      apply_exchange(net, plan);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_TRUE(net.placement().validate());
}

// §4.1's anonymity argument: PROP-G peers may only take *existing*
// identifiers — no id is ever regenerated. In the slot/host model the id
// multiset across hosts must be exactly permuted, which the placement
// bijection certifies directly.
TEST(PropGAnonymity, IdentifierMultisetOnlyPermutes) {
  Rng rng(9400);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  LatencyOracle oracle(topo.graph);
  const auto hosts = select_stub_hosts(topo, 48, rng);
  const auto ring = ChordRing::build_random(48, ChordConfig{}, rng);
  OverlayNetwork net = make_chord_overlay(ring, hosts, oracle);

  // host -> chord id before.
  std::map<NodeId, ChordId> before;
  for (SlotId s = 0; s < 48; ++s) {
    before[net.placement().host_of(s)] = ring.id_of(s);
  }

  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  PropEngine engine(net, sim, params, 1);
  engine.start();
  sim.run_until(1500.0);
  ASSERT_GT(engine.stats().exchanges, 0u);

  std::multiset<ChordId> ids_before;
  std::multiset<ChordId> ids_after;
  std::size_t moved = 0;
  for (SlotId s = 0; s < 48; ++s) {
    const NodeId h = net.placement().host_of(s);
    ids_after.insert(ring.id_of(s));
    ids_before.insert(before.at(h));
    if (before.at(h) != ring.id_of(s)) ++moved;
  }
  // Same identifier multiset (nothing minted or destroyed), but hosts
  // really did trade ids.
  EXPECT_EQ(ids_before, ids_after);
  EXPECT_GT(moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, VarConsistency,
                         ::testing::Values(Substrate::kGnutella,
                                           Substrate::kChord,
                                           Substrate::kPastry,
                                           Substrate::kTapestry,
                                           Substrate::kCan),
                         [](const auto& info) {
                           return substrate_name(info.param);
                         });

}  // namespace
}  // namespace propsim
