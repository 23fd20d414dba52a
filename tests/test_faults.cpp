#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/invariant_checker.h"
#include "analysis/lint_rules.h"
#include "app/experiment.h"
#include "common/config.h"
#include "core/prop_engine.h"
#include "faults/fault_plan.h"
#include "fixtures.h"
#include "sim/scheduler.h"
#include "workload/churn.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;
using testing::run_rule;

PropParams fault_test_params(PropMode mode) {
  PropParams p;
  p.mode = mode;
  p.nhops = 2;
  p.init_timer_s = 10.0;
  p.max_init_trial = 5;
  p.model_message_delays = true;
  return p;
}

/// Host -> stub-domain map for an UnstructuredFixture's topology.
std::vector<std::uint32_t> host_domains(const TransitStubTopology& topo) {
  std::vector<std::uint32_t> dom(topo.graph.node_count(),
                                 FaultInjector::kNoDomain);
  for (NodeId h = 0; h < topo.graph.node_count(); ++h) {
    if (topo.kind[h] == NodeKind::kStub) dom[h] = topo.domain[h];
  }
  return dom;
}

// ------------------------------------------------------- FaultInjector --

TEST(FaultInjector, ZeroLossNeverDrops) {
  Scheduler sim;
  FaultParams params;
  params.latency_jitter = 0.5;  // active, but loss class stays at zero
  FaultInjector faults(sim, params, 7);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(faults.deliver(0, 1));
  }
  EXPECT_EQ(faults.stats().messages, 500u);
  EXPECT_EQ(faults.stats().losses, 0u);
}

TEST(FaultInjector, LossRateRoughlyHolds) {
  Scheduler sim;
  FaultParams params;
  params.message_loss = 0.3;
  FaultInjector faults(sim, params, 8);
  const int n = 20000;
  int lost = 0;
  for (int i = 0; i < n; ++i) {
    if (!faults.deliver(0, 1)) ++lost;
  }
  const double rate = static_cast<double>(lost) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
  EXPECT_EQ(faults.stats().losses, static_cast<std::uint64_t>(lost));
}

TEST(FaultInjector, DeterministicForSeed) {
  Scheduler sim;
  FaultParams params;
  params.message_loss = 0.25;
  FaultInjector a(sim, params, 42);
  FaultInjector b(sim, params, 42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.deliver(0, 1), b.deliver(0, 1));
  }
}

TEST(FaultInjector, JitterStretchesWithinBounds) {
  Scheduler sim;
  FaultParams params;
  params.latency_jitter = 0.5;
  FaultInjector faults(sim, params, 9);
  for (int i = 0; i < 200; ++i) {
    const double d = faults.jitter(10.0);
    EXPECT_GE(d, 10.0);
    EXPECT_LE(d, 15.0);
  }
  // No jitter configured: identity, no stream draw.
  FaultParams loss_only;
  loss_only.message_loss = 0.1;
  FaultInjector plain(sim, loss_only, 9);
  EXPECT_DOUBLE_EQ(plain.jitter(10.0), 10.0);
}

TEST(FaultInjector, PartitionDropsOnlyCrossingMessagesInsideWindow) {
  auto fx = UnstructuredFixture::make(32, 9100);
  const auto dom = host_domains(fx.topo);
  // Two stub hosts inside the cut domain, one outside it.
  const std::uint32_t cut = dom[fx.net.placement().host_of(0)];
  ASSERT_NE(cut, FaultInjector::kNoDomain);
  NodeId inside_a = kInvalidNode, inside_b = kInvalidNode,
         outside = kInvalidNode;
  for (const NodeId h : fx.topo.stub_nodes) {
    if (dom[h] == cut) {
      (inside_a == kInvalidNode ? inside_a : inside_b) = h;
    } else if (outside == kInvalidNode) {
      outside = h;
    }
  }
  ASSERT_NE(inside_b, kInvalidNode);
  ASSERT_NE(outside, kInvalidNode);

  Scheduler sim;
  FaultParams params;
  params.partitions.push_back(PartitionWindow{cut, 10.0, 20.0});
  FaultInjector faults(sim, params, 11);
  faults.set_host_domains(dom);

  EXPECT_FALSE(faults.partitioned(inside_a, outside));  // before window
  EXPECT_EQ(faults.partition_epoch(), 0u);
  // The epoch counts window edges at or before now: it steps exactly at
  // the start and at the end, like partitioned() itself.
  sim.schedule_at(9.5, [&] { EXPECT_EQ(faults.partition_epoch(), 0u); });
  sim.schedule_at(10.0, [&] {
    EXPECT_EQ(faults.partition_epoch(), 1u);
    EXPECT_TRUE(faults.partitioned(inside_a, outside));
  });
  sim.schedule_at(19.5, [&] { EXPECT_EQ(faults.partition_epoch(), 1u); });
  sim.schedule_at(20.0, [&] {
    EXPECT_EQ(faults.partition_epoch(), 2u);
    EXPECT_FALSE(faults.partitioned(inside_a, outside));
  });
  sim.schedule_at(15.0, [&] {
    EXPECT_TRUE(faults.partitioned(inside_a, outside));
    EXPECT_TRUE(faults.partitioned(outside, inside_a));  // symmetric
    EXPECT_FALSE(faults.partitioned(inside_a, inside_b));  // intra-domain
    EXPECT_FALSE(faults.deliver(inside_a, outside));
    EXPECT_TRUE(faults.deliver(inside_a, inside_b));
  });
  sim.schedule_at(25.0, [&] {
    EXPECT_FALSE(faults.partitioned(inside_a, outside));  // healed
    EXPECT_TRUE(faults.deliver(inside_a, outside));
  });
  sim.run_until(30.0);
  EXPECT_EQ(faults.stats().partition_drops, 1u);
  EXPECT_EQ(faults.stats().losses, 0u);
}

TEST(FaultInjector, CrashSchedulesThroughExecutor) {
  Scheduler sim;
  FaultParams params;
  params.crash_per_negotiation = 0.99;
  FaultInjector faults(sim, params, 12);
  std::vector<SlotId> crashed;
  FnFailureExecutor executor([&](SlotId victim) {
    crashed.push_back(victim);
    return true;
  });
  faults.set_failure_executor(&executor);
  std::optional<SlotId> victim;
  for (int i = 0; i < 64 && !victim; ++i) {
    victim = faults.maybe_schedule_crash(3, 4, 2.0);
  }
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(*victim == 3 || *victim == 4);
  EXPECT_EQ(faults.stats().crashes_scheduled, 1u);
  EXPECT_EQ(faults.stats().crashes_executed, 0u);  // not fired yet
  sim.run_until(3.0);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], *victim);
  EXPECT_EQ(faults.stats().crashes_executed, 1u);

  // Probability zero: no draw, no schedule.
  FaultParams none;
  none.message_loss = 0.1;
  FaultInjector quiet(sim, none, 12);
  FnFailureExecutor always([](SlotId) { return true; });
  quiet.set_failure_executor(&always);
  EXPECT_FALSE(quiet.maybe_schedule_crash(3, 4, 2.0).has_value());
}

// ------------------------------------------------ PropEngine hardening --

TEST(PropEngineFaults, LossyNegotiationsStillConverge) {
  auto fx = UnstructuredFixture::make(60, 9200);
  const double before = fx.net.average_logical_link_latency();
  const auto degrees = fx.net.graph().degree_multiset();
  Scheduler sim;
  PropEngine engine(fx.net, sim, fault_test_params(PropMode::kPropO), 30);
  FaultParams params;
  params.message_loss = 0.2;
  params.latency_jitter = 0.3;
  FaultInjector faults(sim, params, 31);
  engine.set_faults(&faults);
  engine.start();
  sim.run_until(3000.0);
  // The exchange machinery degrades (timeouts, retransmissions) but
  // still optimizes, and every structural invariant survives.
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_GT(engine.stats().timeouts, 0u);
  EXPECT_GT(engine.stats().retries, 0u);
  EXPECT_LT(fx.net.average_logical_link_latency(), before);
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

TEST(PropEngineFaults, MidExchangeCrashAbortsCleanly) {
  auto fx = UnstructuredFixture::make(48, 9201);
  Scheduler sim;
  PropEngine engine(fx.net, sim, fault_test_params(PropMode::kPropG), 32);
  GnutellaConfig gcfg;
  ChurnParams cparams;  // all-zero rates: crash executor only
  ChurnProcess churn(fx.net, sim, &engine, gcfg, cparams, {}, 33);
  FaultParams params;
  params.message_loss = 0.05;
  params.crash_per_negotiation = 0.3;
  FaultInjector faults(sim, params, 34);
  engine.set_faults(&faults);
  churn.set_faults(&faults);
  faults.set_failure_executor(&churn);
  engine.start();
  sim.run_until(2000.0);
  EXPECT_GT(faults.stats().crashes_executed, 0u);
  EXPECT_GT(engine.stats().aborted_mid_commit, 0u);
  EXPECT_GT(engine.stats().exchanges, 0u);
  // Crashes removed peers; survivor repair kept the overlay whole and
  // the placement a bijection.
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

// -------------------------------------------------- experiment wiring --

ExperimentSpec parse_spec(const std::string& text) {
  const SpecResult parsed = ExperimentSpec::from_config(Config::parse(text));
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return parsed.spec();
}

const char kSmallBase[] =
    "nodes = 64\nhorizon = 400\nsample_interval = 100\n"
    "queries = 300\ninit_timer = 10\nprotocol = prop-o\n"
    "model_message_delays = true\n";

TEST(ExperimentFaults, ZeroLossKeyIsBitIdenticalToNoKey) {
  // The acceptance contract: fault_loss = 0 (and no other fault knob)
  // never constructs an injector, so results match a config without any
  // fault key exactly — same RNG stream, same event order, same bytes.
  const auto plain = run_experiment(parse_spec(kSmallBase));
  const auto zeroed = run_experiment(parse_spec(
      std::string(kSmallBase) + "fault_loss = 0\nfault_jitter = 0\n"));
  EXPECT_EQ(plain.exchanges, zeroed.exchanges);
  EXPECT_EQ(plain.attempts, zeroed.attempts);
  EXPECT_EQ(plain.control_messages, zeroed.control_messages);
  EXPECT_EQ(plain.commit_conflicts, zeroed.commit_conflicts);
  EXPECT_DOUBLE_EQ(plain.initial_value, zeroed.initial_value);
  EXPECT_DOUBLE_EQ(plain.final_value, zeroed.final_value);
  EXPECT_EQ(zeroed.fault_messages, 0u);
}

TEST(ExperimentFaults, LossSurfacesInCountersV3) {
  const auto result = run_experiment(
      parse_spec(std::string(kSmallBase) + "fault_loss = 0.2\n"));
  EXPECT_GT(result.fault_messages, 0u);
  EXPECT_GT(result.fault_losses, 0u);
  EXPECT_GT(result.timeouts, 0u);
  EXPECT_TRUE(result.connected);
  bool timeouts_seen = false;
  for (const auto& [name, value] : result.counters()) {
    if (name == "timeouts") {
      timeouts_seen = true;
      EXPECT_EQ(value, result.timeouts);
    }
  }
  EXPECT_TRUE(timeouts_seen);
}

TEST(ExperimentFaults, PartitionMakesLookupsUnreachable) {
  const auto result = run_experiment(parse_spec(
      std::string(kSmallBase) +
      "lookup_rate = 4\n"
      "fault_partition_domain = auto\n"
      "fault_partition_start = 100\nfault_partition_end = 300\n"));
  EXPECT_GT(result.lookups_issued, 0u);
  EXPECT_GT(result.lookups_unreachable, 0u);
  EXPECT_GT(result.fault_partition_drops, 0u);
  // The window closes before the horizon: the overlay ends connected.
  EXPECT_TRUE(result.connected);
}

// Sampler ticks land exactly on both window edges. Each tick must see the
// partition exactly as a fresh snapshot would: unreachable lookups (a
// non-finite mean) at the ticks in [start, end) and finite elsewhere, in
// every build. A cache keyed on trace events went stale at both edges,
// because the ticks run before the window's own trace events.
TEST(ExperimentFaults, PartitionWindowEdgesSampleFreshSnapshots) {
  const auto result = run_experiment(parse_spec(
      "protocol = none\nnodes = 200\nqueries = 1000\nhorizon = 1800\n"
      "sample_interval = 120\nfault_partition_domain = auto\n"
      "fault_partition_start = 720\nfault_partition_end = 1080\n"));
  const auto& points = result.series.points();
  ASSERT_EQ(points.size(), 16u);
  for (const auto& p : points) {
    const bool inside = p.time >= 720.0 && p.time < 1080.0;
    EXPECT_EQ(std::isfinite(p.value), !inside) << "t = " << p.time;
  }
}

TEST(ExperimentFaults, InvalidFaultKeysAreRejectedTogether) {
  const SpecResult bad = ExperimentSpec::from_config(Config::parse(
      std::string(kSmallBase) +
      "fault_loss = 1.5\n"
      "fault_crash = 0.1\noverlay = chord\nprotocol = prop-g\n"
      "fault_partition_domain = auto\n"));
  ASSERT_FALSE(bad.ok());
  const std::string report = bad.error_report();
  EXPECT_NE(report.find("fault_loss"), std::string::npos);
  EXPECT_NE(report.find("fault_crash"), std::string::npos);
  EXPECT_NE(report.find("fault_partition"), std::string::npos);
  // Partition on a waxman topology is rejected too.
  const SpecResult waxman = ExperimentSpec::from_config(Config::parse(
      std::string(kSmallBase) +
      "topology = waxman\nfault_partition_domain = 0\n"
      "fault_partition_start = 10\nfault_partition_end = 20\n"));
  EXPECT_FALSE(waxman.ok());
}

// ------------------------------------------------------- faults smoke --
// Run via its own ctest entry (faults_smoke, tier1): a fixed-seed lossy
// run with a partition window, then every invariant-lint rule the
// scenario is expected to preserve, in-process.

TEST(FaultsSmoke, PropOLossAndPartitionKeepInvariants) {
  auto fx = UnstructuredFixture::make(48, 9400);
  const SnapshotGraph baseline = snapshot_of(fx.net.graph());
  Scheduler sim;
  PropEngine engine(fx.net, sim, fault_test_params(PropMode::kPropO), 50);
  FaultParams params;
  params.message_loss = 0.05;
  params.latency_jitter = 0.2;
  const std::uint32_t cut =
      fx.topo.domain[fx.net.placement().host_of(0)];
  params.partitions.push_back(PartitionWindow{cut, 400.0, 800.0});
  FaultInjector faults(sim, params, 51);
  faults.set_host_domains(host_domains(fx.topo));
  engine.set_faults(&faults);
  faults.start();
  engine.start();
  sim.run_until(2000.0);

  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_GT(faults.stats().losses + faults.stats().partition_drops, 0u);
  const SnapshotGraph snap = snapshot_of(fx.net.graph());
  const LintContext ctx{.graph = &snap,
                        .baseline = &baseline,
                        .placement = &fx.net.placement()};
  for (const char* rule :
       {"edge-range", "no-self-loops", "no-parallel-edges", "connectivity",
        "degree-conservation", "placement-bijection"}) {
    const LintReport report = run_rule(rule, ctx);
    EXPECT_TRUE(report.passed()) << rule << ":\n" << report.to_string();
  }
}

TEST(FaultsSmoke, PropGWithCrashesKeepsPlacementSound) {
  auto fx = UnstructuredFixture::make(48, 9401);
  Scheduler sim;
  PropEngine engine(fx.net, sim, fault_test_params(PropMode::kPropG), 52);
  GnutellaConfig gcfg;
  ChurnParams cparams;
  ChurnProcess churn(fx.net, sim, &engine, gcfg, cparams, {}, 53);
  FaultParams params;
  params.message_loss = 0.05;
  params.crash_per_negotiation = 0.2;
  FaultInjector faults(sim, params, 54);
  engine.set_faults(&faults);
  churn.set_faults(&faults);
  faults.set_failure_executor(&churn);
  engine.start();
  sim.run_until(2000.0);

  EXPECT_GT(faults.stats().crashes_executed, 0u);
  // Crashes change degrees (repair re-dials), so degree conservation is
  // out of scope here; structure and placement must stay sound.
  const SnapshotGraph snap = snapshot_of(fx.net.graph());
  const LintContext ctx{.graph = &snap,
                        .placement = &fx.net.placement()};
  for (const char* rule : {"edge-range", "no-self-loops",
                           "no-parallel-edges", "connectivity",
                           "placement-bijection"}) {
    const LintReport report = run_rule(rule, ctx);
    EXPECT_TRUE(report.passed()) << rule << ":\n" << report.to_string();
  }
}

}  // namespace
}  // namespace propsim
