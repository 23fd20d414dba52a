#include <array>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/adversary.h"
#include "analysis/invariant_checker.h"
#include "analysis/lint_rules.h"
#include "app/experiment.h"
#include "app/result_json.h"
#include "common/config.h"
#include "core/prop_engine.h"
#include "faults/fault_plan.h"
#include "fixtures.h"
#include "sim/scheduler.h"
#include "workload/churn.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

PropParams adversary_test_params(PropMode mode) {
  PropParams p;
  p.mode = mode;
  p.nhops = 2;
  p.init_timer_s = 10.0;
  p.max_init_trial = 5;
  p.model_message_delays = true;
  return p;
}

// ------------------------------------------------------ AdversaryLayer --

TEST(AdversaryLayer, RoleAssignmentIsDeterministicAndDisjoint) {
  auto fx = UnstructuredFixture::make(40, 9500);
  AdversaryParams params;
  params.liar_fraction = 0.2;
  params.freeride_fraction = 0.1;
  params.dropper_fraction = 0.05;
  AdversaryLayer a(fx.net, params, 42);
  AdversaryLayer b(fx.net, params, 42);
  for (NodeId h = 0; h < 2000; ++h) {
    EXPECT_EQ(a.role_of_host(h), b.role_of_host(h));
  }
  // Cohort sizes approximate the configured fractions (hash-based
  // assignment over 4000 hosts).
  const std::array<std::uint64_t, 5> counts = a.census(4000);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 4000.0, 0.2, 0.05);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 4000.0, 0.1, 0.05);
  EXPECT_NEAR(static_cast<double>(counts[3]) / 4000.0, 0.05, 0.03);
  EXPECT_EQ(counts[4], 0u);  // no eclipse cohort configured
  EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3] + counts[4],
            4000u);
}

TEST(AdversaryLayer, DefaultParamsAreInactive) {
  AdversaryParams params;
  EXPECT_FALSE(params.active());
  params.liar_fraction = 0.01;
  EXPECT_TRUE(params.active());
}

// ------------------------------------------------- per-model behavior --

TEST(AdversaryModels, LiarsFlipGateDecisionsButPreserveStructure) {
  auto fx = UnstructuredFixture::make(60, 9510);
  const auto degrees = fx.net.graph().degree_multiset();
  Scheduler sim;
  PropEngine engine(fx.net, sim, adversary_test_params(PropMode::kPropO),
                    60);
  AdversaryParams params;
  params.liar_fraction = 0.3;
  AdversaryLayer adversary(fx.net, params, 61);
  engine.set_adversary(&adversary);
  engine.start();
  sim.run_until(3000.0);
  EXPECT_GT(adversary.stats().lies, 0u);
  EXPECT_GT(engine.stats().exchanges, 0u);
  // Lies corrupt decisions, never applied plans: the degree multiset
  // (Theorem 1) and the placement bijection survive any lie.
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_TRUE(fx.net.placement().validate());
}

TEST(AdversaryModels, FreeRidersSkipProbesButHonestMajorityConverges) {
  auto fx = UnstructuredFixture::make(60, 9511);
  const double before = fx.net.average_logical_link_latency();
  Scheduler sim;
  PropEngine engine(fx.net, sim, adversary_test_params(PropMode::kPropO),
                    62);
  AdversaryParams params;
  params.freeride_fraction = 0.3;
  AdversaryLayer adversary(fx.net, params, 63);
  engine.set_adversary(&adversary);
  engine.start();
  sim.run_until(3000.0);
  EXPECT_GT(adversary.stats().freeride_skips, 0u);
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(fx.net.average_logical_link_latency(), before);
}

TEST(AdversaryModels, DroppersAbortPreparedCommits) {
  auto fx = UnstructuredFixture::make(60, 9512);
  Scheduler sim;
  PropEngine engine(fx.net, sim, adversary_test_params(PropMode::kPropG),
                    64);
  AdversaryParams params;
  params.dropper_fraction = 0.3;
  params.drop_probability = 1.0;
  AdversaryLayer adversary(fx.net, params, 65);
  engine.set_adversary(&adversary);
  engine.start();
  sim.run_until(3000.0);
  EXPECT_GT(adversary.stats().drops, 0u);
  EXPECT_GT(engine.stats().aborted_mid_commit, 0u);
  // Aborted two-phase exchanges release both locks.
  for (SlotId s = 0; s < engine.tracked_slots(); ++s) {
    const SlotId peer = engine.negotiation_peer(s);
    if (peer != kInvalidSlot) {
      EXPECT_EQ(engine.negotiation_peer(peer), s);
    }
  }
  EXPECT_TRUE(fx.net.placement().validate());
}

TEST(AdversaryModels, EclipseCohortSteersButCannotFullyIsolate) {
  auto fx = UnstructuredFixture::make(60, 9513);
  Scheduler sim;
  PropEngine engine(fx.net, sim, adversary_test_params(PropMode::kPropG),
                    66);
  AdversaryParams params;
  params.eclipse_fraction = 0.1;
  AdversaryLayer adversary(fx.net, params, 67);
  engine.set_adversary(&adversary);
  const SlotId target = adversary.eclipse_target();
  ASSERT_NE(target, kInvalidSlot);
  engine.start();
  sim.run_until(4000.0);
  EXPECT_GT(adversary.stats().eclipse_attempts, 0u);
  // PROP-G moves hosts only: the logical graph is untouched, so the
  // target keeps its degree no matter how many seats are captured.
  EXPECT_TRUE(fx.net.placement().validate());
  const auto neighbors = fx.net.graph().neighbors(target);
  std::size_t cohort = 0;
  for (SlotId s = 0; s < static_cast<SlotId>(fx.net.graph().slot_count());
       ++s) {
    if (fx.net.graph().is_active(s) &&
        adversary.role_of(s) == PeerRole::kEclipse) {
      ++cohort;
    }
  }
  std::size_t honest_neighbors = 0;
  for (const SlotId n : neighbors) {
    if (adversary.role_of(n) != PeerRole::kEclipse) ++honest_neighbors;
  }
  EXPECT_EQ(adversary.eclipse_captured(),
            neighbors.size() - honest_neighbors);
  // The cohort cannot capture more seats than it has members: whenever
  // the neighborhood is bigger than the cohort, at least one honest
  // neighbor survives and the victim is never fully eclipsed.
  if (neighbors.size() > cohort) {
    EXPECT_GE(honest_neighbors, 1u);
  }
}

// ------------------------------- differential fuzz: negotiation locks --

TEST(AdversaryFuzz, NoOrphanLocksOrPendingLeaksUnderAnyModel) {
  struct ModelCase {
    const char* name;
    AdversaryParams params;
    PropMode mode;
  };
  std::vector<ModelCase> cases;
  {
    AdversaryParams p;
    p.liar_fraction = 0.25;
    cases.push_back({"liar", p, PropMode::kPropO});
  }
  {
    AdversaryParams p;
    p.freeride_fraction = 0.25;
    cases.push_back({"free-rider", p, PropMode::kPropO});
  }
  {
    AdversaryParams p;
    p.dropper_fraction = 0.25;
    p.drop_probability = 0.7;
    cases.push_back({"dropper", p, PropMode::kPropG});
  }
  {
    AdversaryParams p;
    p.eclipse_fraction = 0.1;
    cases.push_back({"eclipse", p, PropMode::kPropG});
  }
  {
    AdversaryParams p;
    p.liar_fraction = 0.15;
    p.freeride_fraction = 0.1;
    p.dropper_fraction = 0.1;
    p.drop_probability = 0.5;
    cases.push_back({"mix", p, PropMode::kPropO});
  }
  for (const ModelCase& c : cases) {
    for (const std::uint64_t seed : {9601ull, 9602ull, 9603ull}) {
      auto fx = UnstructuredFixture::make(40, seed);
      Scheduler sim;
      PropEngine engine(fx.net, sim, adversary_test_params(c.mode),
                        seed + 1);
      AdversaryLayer adversary(fx.net, c.params, seed + 2);
      engine.set_adversary(&adversary);
      engine.start();
      // Chunked run: audit the two-phase lock table mid-flight, where a
      // leaked lock would still be visible, not just at quiescence.
      for (double t = 250.0; t <= 2000.0; t += 250.0) {
        sim.run_until(t);
        const SnapshotGraph snap = snapshot_of(fx.net.graph());
        const NegotiationLockView locks =
            negotiation_lock_view(engine, fx.net.graph());
        const LintContext ctx{.graph = &snap, .locks = &locks};
        const LintReport report =
            InvariantChecker(std::vector<std::string>{"negotiation-locks"})
                .run(ctx);
        EXPECT_TRUE(report.passed())
            << c.name << " seed " << seed << " t=" << t << ":\n"
            << report.to_string();
      }
      EXPECT_TRUE(fx.net.placement().validate()) << c.name;
    }
  }
}

// ----------------------------------------------- correlated failures --

TEST(FaultInjectorStorm, FailsEnumeratedVictimsEvenlyWithoutRng) {
  Scheduler sim;
  FaultParams params;
  params.storms.push_back(StormWindow{0, 10.0, 6.0});
  FaultInjector faults(sim, params, 70);
  std::vector<SlotId> failed;
  std::vector<double> when;
  FnFailureExecutor executor([&](SlotId victim) {
    failed.push_back(victim);
    when.push_back(sim.now());
    return true;
  });
  faults.set_failure_executor(&executor);
  faults.set_storm_enumerator(
      [](std::uint32_t) { return std::vector<SlotId>{4, 7, 9}; });
  faults.start();
  sim.run_until(20.0);
  ASSERT_EQ(failed.size(), 3u);
  EXPECT_EQ(failed, (std::vector<SlotId>{4, 7, 9}));
  EXPECT_EQ(faults.stats().storm_failures, 3u);
  // Even spacing across the window: 10 + {1.5, 3.0, 4.5}.
  EXPECT_DOUBLE_EQ(when[0], 11.5);
  EXPECT_DOUBLE_EQ(when[1], 13.0);
  EXPECT_DOUBLE_EQ(when[2], 14.5);
}

TEST(FaultInjectorStorm, ScheduleDoesNotPerturbTheLossStream) {
  // Satellite regression: arming a storm must not shift the injector's
  // private RNG stream — the loss schedule with and without a storm is
  // identical draw for draw.
  Scheduler sim_a;
  Scheduler sim_b;
  FaultParams plain;
  plain.message_loss = 0.25;
  FaultParams stormy = plain;
  stormy.storms.push_back(StormWindow{0, 5.0, 3.0});
  FaultInjector a(sim_a, plain, 77);
  FaultInjector b(sim_b, stormy, 77);
  b.start();  // arms the storm; no enumerator/executor => no victims
  sim_b.run_until(20.0);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.deliver(0, 1), b.deliver(0, 1)) << "draw " << i;
  }
}

TEST(FaultInjectorBurst, GilbertElliottMatchesStationaryRateAndDwell) {
  Scheduler sim;
  FaultParams params;
  params.message_loss = 0.2;
  params.loss_burst_len = 8;
  FaultInjector faults(sim, params, 78);
  const int n = 60000;
  int lost = 0;
  std::vector<int> runs;
  int run = 0;
  for (int i = 0; i < n; ++i) {
    if (!faults.deliver(0, 1)) {
      ++lost;
      ++run;
    } else if (run > 0) {
      runs.push_back(run);
      run = 0;
    }
  }
  // Stationary loss fraction equals message_loss...
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.2, 0.02);
  // ...and the mean burst length equals loss_burst_len.
  ASSERT_FALSE(runs.empty());
  double total = 0.0;
  for (const int r : runs) total += r;
  EXPECT_NEAR(total / static_cast<double>(runs.size()), 8.0, 1.5);
  // Every burst-mode loss is double-counted in both tallies.
  EXPECT_EQ(faults.stats().burst_losses, faults.stats().losses);
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

/// Drops the wall-clock lines (`"wall_ms": ...`) from a dumped result:
/// they measure host time, the one legitimately nondeterministic field.
std::string without_wall_ms(const std::string& json) {
  std::string out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    const std::size_t eol = json.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? json.size() : eol + 1;
    const std::string_view line(json.data() + pos, end - pos);
    if (line.find("\"wall_ms\"") == std::string_view::npos) {
      out.append(line);
    }
    pos = end;
  }
  return out;
}

TEST(ExperimentAdversary, ZeroKnobsAreByteIdenticalToNoKeys) {
  // The acceptance contract: every adversary/storm/burst knob at zero
  // never constructs a layer or shifts a stream, so the full result
  // JSON matches a config without any of the keys byte for byte — on
  // the honest config and on a faulted one.
  const std::string zero_keys =
      "adversary_liar_fraction = 0\nadversary_freeride_fraction = 0\n"
      "adversary_dropper_fraction = 0\nadversary_eclipse_fraction = 0\n"
      "fault_loss_burst_len = 0\n";
  for (const std::string& base :
       {std::string(kSmallBase),
        std::string(kSmallBase) + "fault_loss = 0.1\nfault_jitter = 0.2\n"}) {
    const ExperimentSpec plain_spec = parse_spec(base);
    const ExperimentSpec zeroed_spec = parse_spec(base + zero_keys);
    const std::string plain = without_wall_ms(
        experiment_result_json(plain_spec, run_experiment(plain_spec))
            .dump(2));
    const std::string zeroed = without_wall_ms(
        experiment_result_json(zeroed_spec, run_experiment(zeroed_spec))
            .dump(2));
    EXPECT_EQ(plain, zeroed);
  }
}

TEST(ExperimentAdversary, LiarRunSurfacesCountersV6AndStanza) {
  const ExperimentSpec spec = parse_spec(std::string(kSmallBase) +
                                         "adversary_liar_fraction = 0.3\n");
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.adversary_lies, 0u);
  bool lies_seen = false;
  for (const auto& [name, value] : result.counters()) {
    if (name == "adversary_lies") {
      lies_seen = true;
      EXPECT_EQ(value, result.adversary_lies);
    }
  }
  EXPECT_TRUE(lies_seen);
  const Json json = experiment_result_json(spec, result);
  const Json* adversary = json.find("adversary");
  ASSERT_NE(adversary, nullptr);
  ASSERT_NE(adversary->find("lies"), nullptr);
  // Honest runs carry no stanza at all.
  const ExperimentSpec honest = parse_spec(kSmallBase);
  const Json honest_json = experiment_result_json(honest,
                                                  run_experiment(honest));
  EXPECT_EQ(honest_json.find("adversary"), nullptr);
}

TEST(ExperimentAdversary, StormFailsDomainAndChurnRepairs) {
  const ExperimentSpec spec = parse_spec(
      std::string(kSmallBase) +
      "fault_storm_domain = auto\nfault_storm_start = 100\n"
      "fault_storm_window = 50\n");
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.fault_storm_failures, 0u);
  // The churn repair path re-stitched survivors: the overlay ends
  // connected despite losing a whole stub domain at once.
  EXPECT_TRUE(result.connected);
  EXPECT_LT(result.final_population, 64u);
  const Json json = experiment_result_json(spec, result);
  const Json* faults = json.find("faults");
  ASSERT_NE(faults, nullptr);
  ASSERT_NE(faults->find("storms"), nullptr);
  ASSERT_NE(faults->find("storm_failures"), nullptr);
}

TEST(ExperimentAdversary, BurstLossSurfacesInResult) {
  const ExperimentSpec spec = parse_spec(
      std::string(kSmallBase) +
      "fault_loss = 0.2\nfault_loss_burst_len = 8\n");
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.fault_burst_losses, 0u);
  EXPECT_EQ(result.fault_burst_losses, result.fault_losses);
  const Json json = experiment_result_json(spec, result);
  const Json* faults = json.find("faults");
  ASSERT_NE(faults, nullptr);
  ASSERT_NE(faults->find("loss_burst_len"), nullptr);
  ASSERT_NE(faults->find("burst_losses"), nullptr);
}

TEST(ExperimentAdversary, InvalidKnobsAreRejected) {
  // Adversary models require the unstructured overlay + PROP.
  EXPECT_FALSE(ExperimentSpec::from_config(Config::parse(
                   std::string(kSmallBase) +
                   "overlay = chord\nprotocol = prop-g\n"
                   "adversary_liar_fraction = 0.1\n"))
                   .ok());
  // Eclipse needs PROP-G (prop-o in kSmallBase).
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse(std::string(kSmallBase) +
                                 "adversary_eclipse_fraction = 0.1\n"))
                   .ok());
  // Fractions must leave an honest remainder.
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse(std::string(kSmallBase) +
                                 "adversary_liar_fraction = 0.5\n"
                                 "adversary_freeride_fraction = 0.5\n"))
                   .ok());
  // Burst length without a loss rate is meaningless.
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse(std::string(kSmallBase) +
                                 "fault_loss_burst_len = 8\n"))
                   .ok());
  // Storms need all three keys...
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse(std::string(kSmallBase) +
                                 "fault_storm_domain = auto\n"))
                   .ok());
  // ...and a transit-stub topology.
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse(std::string(kSmallBase) +
                                 "topology = waxman\n"
                                 "fault_storm_domain = 0\n"
                                 "fault_storm_start = 10\n"
                                 "fault_storm_window = 20\n"))
                   .ok());
  // An eclipse target without an eclipse cohort is a config smell.
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse(std::string(kSmallBase) +
                                 "adversary_eclipse_target = 3\n"))
                   .ok());
  // A lie factor outside (0, 1] is rejected.
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse(std::string(kSmallBase) +
                                 "adversary_liar_fraction = 0.1\n"
                                 "adversary_lie_factor = 0\n"))
                   .ok());
}

}  // namespace
}  // namespace propsim
