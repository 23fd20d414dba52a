// End-to-end mini-experiments: scaled-down versions of the paper's
// figures asserting the qualitative claims (who improves, what is
// preserved), so regressions in any module surface here.
#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/ltm.h"
#include "baselines/pis.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "sim/scheduler.h"
#include "fixtures.h"
#include "metrics/convergence.h"
#include "metrics/metrics.h"
#include "workload/churn.h"
#include "workload/heterogeneity.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

PropParams quick_prop(PropMode mode) {
  PropParams p;
  p.mode = mode;
  p.init_timer_s = 10.0;
  p.max_init_trial = 8;
  return p;
}

// Figure 5 in miniature: PROP-G cuts unstructured lookup latency over
// time, and the improvement is monotone-ish (final < initial).
TEST(Integration, PropGImprovesGnutellaLookupLatency) {
  auto fx = UnstructuredFixture::make(80, 7001);
  Rng qrng(1);
  const auto queries = uniform_queries(fx.net.graph(), 400, qrng);
  const double before =
      average_unstructured_lookup_latency(fx.net, queries);

  Scheduler sim;
  PropEngine engine(fx.net, sim, quick_prop(PropMode::kPropG), 2);
  ConvergenceSampler sampler(sim, "lookup", 0.0, 2000.0, 200.0, [&] {
    return average_unstructured_lookup_latency(fx.net, queries);
  });
  engine.start();
  sim.run_until(2000.0);

  const double after = average_unstructured_lookup_latency(fx.net, queries);
  EXPECT_LT(after, before * 0.9);
  EXPECT_LE(sampler.series().last_value(), sampler.series().first_value());
}

// Figure 6 in miniature: PROP-G cuts Chord lookup stretch.
TEST(Integration, PropGImprovesChordStretch) {
  Rng rng(7002);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  LatencyOracle oracle(topo.graph);
  const auto hosts = select_stub_hosts(topo, 64, rng);
  const auto ring = ChordRing::build_random(64, ChordConfig{}, rng);
  OverlayNetwork net = make_chord_overlay(ring, hosts, oracle);

  Rng qrng(2);
  const auto queries = sample_query_pairs(net.graph(), 300, qrng);
  const auto router = chord_router(net, ring);
  const double before = stretch(net, queries, router).stretch;

  Scheduler sim;
  PropEngine engine(net, sim, quick_prop(PropMode::kPropG), 3);
  engine.start();
  sim.run_until(2500.0);
  const double after = stretch(net, queries, router).stretch;
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(after, before);
  EXPECT_GT(after, 1.0);  // routed latency can never beat direct
}

// PROP-G on CAN: same generic mechanism, third substrate.
TEST(Integration, PropGImprovesCanRouting) {
  Rng rng(7003);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  LatencyOracle oracle(topo.graph);
  const auto hosts = select_stub_hosts(topo, 48, rng);
  const auto space = CanSpace::build(48, rng);
  OverlayNetwork net = make_can_overlay(space, hosts, oracle);

  Rng qrng(3);
  auto avg_route = [&] {
    Rng r(11);
    double sum = 0.0;
    const int q = 200;
    for (int i = 0; i < q; ++i) {
      const SlotId src = static_cast<SlotId>(r.uniform(48));
      CanPoint target{r.uniform(kCanSpan), r.uniform(kCanSpan)};
      const auto path = space.route_path(src, target);
      sum += path_latency(net, path);
    }
    return sum / q;
  };

  const double before = avg_route();
  Scheduler sim;
  PropEngine engine(net, sim, quick_prop(PropMode::kPropG), 4);
  engine.start();
  sim.run_until(2500.0);
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(avg_route(), before);
}

// Figure 7's key contrast in miniature: under bimodal heterogeneity with
// fast-destined lookups, PROP-O (degree-preserving) beats LTM (which
// redistributes the fast hubs' connections).
TEST(Integration, PropOBeatsLtmForFastDestinedLookups) {
  const std::uint64_t seed = 7004;
  BimodalConfig bcfg;

  auto run = [&](auto&& optimize) {
    auto fx = UnstructuredFixture::make(80, seed);
    Rng hrng(5);
    // Fast nodes are the high-degree hubs (the paper's correlation of
    // capability with connection count). Delays follow the hosts, so a
    // post-optimization slot view is materialized for measurement.
    const auto delays = make_bimodal_delays_by_degree(fx.net, bcfg, hrng);
    optimize(fx, delays);
    Rng qrng(6);
    const auto fast = delays.slot_fast(fx.net);
    const auto proc = delays.slot_delays(fx.net);
    const auto queries = biased_queries(fx.net.graph(), fast, 0.9, 400, qrng);
    return average_unstructured_lookup_latency(fx.net, queries, &proc);
  };

  const double prop_o = run([](UnstructuredFixture& fx,
                               const BimodalDelays&) {
    Scheduler sim;
    PropEngine engine(fx.net, sim, quick_prop(PropMode::kPropO), 7);
    engine.start();
    sim.run_until(2500.0);
  });
  const double ltm = run([](UnstructuredFixture& fx, const BimodalDelays&) {
    Scheduler sim;
    LtmParams params;
    params.interval_s = 10.0;
    LtmEngine engine(fx.net, sim, params, 8);
    engine.start();
    sim.run_until(2500.0);
  });
  EXPECT_LT(prop_o, ltm);
}

// PROP-G composes with PIS: starting from a location-aware id assignment
// still leaves room for peer exchanges to improve, and never hurts.
TEST(Integration, PropGComposesWithPis) {
  Rng rng(7005);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  LatencyOracle oracle(topo.graph);
  const auto hosts = select_stub_hosts(topo, 64, rng);
  const auto landmarks = select_landmarks(topo, 4, rng);
  const auto ids = pis_identifiers(hosts, landmarks, oracle, rng);
  const auto ring = ChordRing::build_with_ids(ids, ChordConfig{});
  OverlayNetwork net = make_chord_overlay(ring, hosts, oracle);

  Rng qrng(9);
  const auto queries = sample_query_pairs(net.graph(), 300, qrng);
  const auto router = chord_router(net, ring);
  const double before = stretch(net, queries, router).stretch;

  Scheduler sim;
  PropEngine engine(net, sim, quick_prop(PropMode::kPropG), 10);
  engine.start();
  sim.run_until(2500.0);
  const double after = stretch(net, queries, router).stretch;
  EXPECT_LE(after, before + 1e-9);
}

// Dynamics: churn perturbs the overlay; PROP keeps optimizing and the
// post-churn latency returns below the perturbed level.
TEST(Integration, PropRecoversAfterChurnBurst) {
  auto fx = UnstructuredFixture::make(60, 7006);
  Scheduler sim;
  PropEngine engine(fx.net, sim, quick_prop(PropMode::kPropO), 11);
  engine.start();

  GnutellaConfig gcfg;
  ChurnParams cparams;
  cparams.join_rate_per_s = 0.2;
  cparams.leave_rate_per_s = 0.2;
  cparams.start_s = 1000.0;
  cparams.end_s = 1300.0;
  std::vector<NodeId> spares;
  for (const NodeId h : fx.topo.stub_nodes) {
    if (!fx.net.placement().host_bound(h) && spares.size() < 40) {
      spares.push_back(h);
    }
  }
  ChurnProcess churn(fx.net, sim, &engine, gcfg, cparams, spares, 12);
  churn.start();

  sim.run_until(1000.0);  // converged phase
  Rng qrng(13);
  const auto pre_queries = uniform_queries(fx.net.graph(), 300, qrng);
  const double converged =
      average_unstructured_lookup_latency(fx.net, pre_queries);

  sim.run_until(1300.0);  // churn burst over
  sim.run_until(3500.0);  // recovery window

  ASSERT_TRUE(fx.net.graph().active_subgraph_connected());
  Rng qrng2(14);
  const auto post_queries = uniform_queries(fx.net.graph(), 300, qrng2);
  const double recovered =
      average_unstructured_lookup_latency(fx.net, post_queries);
  EXPECT_GT(churn.joins() + churn.leaves(), 20u);
  // Recovery lands in the neighbourhood of the converged value.
  EXPECT_LT(recovered, converged * 1.5);
}

// Overhead shape (Section 4.3): per-adjustment control messages follow
// nhops + 2c for PROP-G vs nhops + 2m for PROP-O, so with c >> m PROP-O
// is cheaper per attempt.
TEST(Integration, PropOCheaperPerAttemptThanPropG) {
  auto measure = [](PropMode mode, std::size_t m) {
    auto fx = UnstructuredFixture::make(60, 7007, /*attach_links=*/6);
    Scheduler sim;
    PropParams params;
    params.mode = mode;
    params.m = m;
    params.init_timer_s = 10.0;
    PropEngine engine(fx.net, sim, params, 15);
    engine.start();
    fx.net.traffic().reset();
    sim.run_until(500.0);
    return static_cast<double>(fx.net.traffic().control_total()) /
           static_cast<double>(engine.stats().attempts);
  };
  const double per_g = measure(PropMode::kPropG, 0);
  const double per_o = measure(PropMode::kPropO, 2);
  EXPECT_LT(per_o, per_g);
}

}  // namespace
}  // namespace propsim
