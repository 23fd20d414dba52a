#include <algorithm>

#include <gtest/gtest.h>

#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "fixtures.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;
using testing::run_rule;

PropParams fast_params(PropMode mode) {
  PropParams p;
  p.mode = mode;
  p.nhops = 2;
  p.init_timer_s = 10.0;
  p.max_init_trial = 5;
  return p;
}

TEST(NeighborQueueTest, InitializeCoversAllNeighbors) {
  Rng rng(1);
  const std::vector<SlotId> neigh{3, 7, 9, 12};
  NeighborQueue q;
  q.initialize(neigh, rng);
  EXPECT_EQ(q.size(), 4u);
  for (const SlotId s : neigh) EXPECT_TRUE(q.contains(s));
}

TEST(NeighborQueueTest, SuccessKeepsNeighborNearFront) {
  Rng rng(2);
  NeighborQueue q;
  q.initialize(std::vector<SlotId>{1, 2, 3}, rng);
  const SlotId first = *q.front();
  q.on_success(first);
  EXPECT_EQ(*q.front(), first);  // rank dropped below everyone else's
}

TEST(NeighborQueueTest, FailureMovesToTail) {
  Rng rng(3);
  NeighborQueue q;
  q.initialize(std::vector<SlotId>{1, 2, 3}, rng);
  const SlotId first = *q.front();
  q.on_failure(first);
  EXPECT_NE(*q.front(), first);
  // Failing everything cycles back eventually.
  q.on_failure(*q.front());
  q.on_failure(*q.front());
  EXPECT_EQ(*q.front(), first);
}

TEST(NeighborQueueTest, AddFrontGetsMaxPriority) {
  Rng rng(4);
  NeighborQueue q;
  q.initialize(std::vector<SlotId>{1, 2, 3}, rng);
  q.add_front(42);
  EXPECT_EQ(*q.front(), 42u);
}

TEST(NeighborQueueTest, RemoveAndEmpty) {
  Rng rng(5);
  NeighborQueue q;
  q.initialize(std::vector<SlotId>{1}, rng);
  q.remove(1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.front().has_value());
  q.remove(1);  // idempotent
}

// --------------------------------------------------------- the engine ----

TEST(PropEngine, WarmUpThenMaintenance) {
  auto fx = UnstructuredFixture::make(40, 3001);
  Scheduler sim;
  PropEngine engine(fx.net, sim, fast_params(PropMode::kPropG), 1);
  engine.start();
  // After enough simulated time every node has exceeded max_init_trial.
  sim.run_until(fast_params(PropMode::kPropG).init_timer_s * 20);
  for (const SlotId s : fx.net.graph().active_slots()) {
    EXPECT_TRUE(engine.in_maintenance(s));
  }
  EXPECT_GT(engine.stats().attempts, 40u * 5u);
}

TEST(PropEngine, PropGReducesAverageLogicalLinkLatency) {
  auto fx = UnstructuredFixture::make(60, 3002);
  const double before = fx.net.average_logical_link_latency();
  Scheduler sim;
  PropEngine engine(fx.net, sim, fast_params(PropMode::kPropG), 2);
  engine.start();
  sim.run_until(2000.0);
  const double after = fx.net.average_logical_link_latency();
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(after, before);
}

TEST(PropEngine, PropOReducesAverageLogicalLinkLatency) {
  auto fx = UnstructuredFixture::make(60, 3003);
  const double before = fx.net.average_logical_link_latency();
  const auto degrees = fx.net.graph().degree_multiset();
  Scheduler sim;
  PropEngine engine(fx.net, sim, fast_params(PropMode::kPropO), 3);
  engine.start();
  sim.run_until(2000.0);
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(fx.net.average_logical_link_latency(), before);
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
}

TEST(PropEngine, ExchangeSizeDefaultsToMinDegree) {
  auto fx = UnstructuredFixture::make(40, 3004, /*attach_links=*/3);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropO);
  params.m = 0;
  PropEngine engine(fx.net, sim, params, 4);
  engine.start();
  EXPECT_EQ(engine.exchange_size(), 3u);
}

TEST(PropEngine, RandomTargetModeWorks) {
  auto fx = UnstructuredFixture::make(40, 3005);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropG);
  params.random_target = true;
  PropEngine engine(fx.net, sim, params, 5);
  engine.start();
  sim.run_until(1000.0);
  EXPECT_GT(engine.stats().exchanges, 0u);
}

TEST(PropEngine, BackoffGrowsTimerAfterConvergence) {
  auto fx = UnstructuredFixture::make(40, 3006);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropG);
  PropEngine engine(fx.net, sim, params, 6);
  engine.start();
  sim.run_until(8000.0);
  // Once the topology converges, failures dominate; some nodes must have
  // backed off beyond the base timer.
  std::size_t backed_off = 0;
  for (const SlotId s : fx.net.graph().active_slots()) {
    if (engine.timer_of(s) > params.init_timer_s) ++backed_off;
  }
  EXPECT_GT(backed_off, 0u);
}

TEST(PropEngine, BackoffDisabledKeepsBaseTimer) {
  auto fx = UnstructuredFixture::make(30, 3007);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropG);
  params.use_backoff = false;
  PropEngine engine(fx.net, sim, params, 7);
  engine.start();
  sim.run_until(3000.0);
  for (const SlotId s : fx.net.graph().active_slots()) {
    EXPECT_DOUBLE_EQ(engine.timer_of(s), params.init_timer_s);
  }
}

TEST(PropEngine, BackoffNeverExceedsMaxTimer) {
  auto fx = UnstructuredFixture::make(30, 3008);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropG);
  PropEngine engine(fx.net, sim, params, 8);
  engine.start();
  sim.run_until(20000.0);
  for (const SlotId s : fx.net.graph().active_slots()) {
    EXPECT_LE(engine.timer_of(s), params.max_timer_s());
  }
}

TEST(PropEngine, ManualAttemptOnNewEngine) {
  auto fx = UnstructuredFixture::make(30, 3009);
  Scheduler sim;
  PropEngine engine(fx.net, sim, fast_params(PropMode::kPropG), 9);
  engine.start();
  std::uint64_t before = engine.stats().attempts;
  engine.attempt(0);
  EXPECT_EQ(engine.stats().attempts, before + 1);
}

TEST(PropEngine, StatsAccounting) {
  auto fx = UnstructuredFixture::make(40, 3010);
  Scheduler sim;
  PropEngine engine(fx.net, sim, fast_params(PropMode::kPropG), 10);
  engine.start();
  sim.run_until(1500.0);
  const auto& s = engine.stats();
  EXPECT_EQ(s.planned, s.exchanges + s.rejected);
  EXPECT_LE(s.planned + s.walk_failures, s.attempts);
  EXPECT_GT(s.total_var_gain, 0.0);
  EXPECT_GT(s.last_exchange_time, 0.0);
}

TEST(PropEngine, TrafficChargedPerAttempt) {
  auto fx = UnstructuredFixture::make(40, 3011);
  Scheduler sim;
  PropEngine engine(fx.net, sim, fast_params(PropMode::kPropG), 11);
  engine.start();
  fx.net.traffic().reset();
  sim.run_until(500.0);
  EXPECT_GT(fx.net.traffic().by_kind(MessageKind::kWalk), 0u);
  EXPECT_GT(fx.net.traffic().by_kind(MessageKind::kProbe), 0u);
  if (engine.stats().exchanges > 0) {
    EXPECT_GT(fx.net.traffic().by_kind(MessageKind::kNotify), 0u);
    EXPECT_GT(fx.net.traffic().by_kind(MessageKind::kExchangeCtrl), 0u);
  }
}

TEST(PropEngine, ChurnHooksMaintainState) {
  auto fx = UnstructuredFixture::make(40, 3012);
  Scheduler sim;
  PropEngine engine(fx.net, sim, fast_params(PropMode::kPropO), 12);
  engine.start();
  sim.run_until(100.0);

  // Simulate a departure.
  const SlotId victim = fx.net.graph().active_slots()[5];
  const auto neigh = fx.net.graph().neighbors(victim);
  const std::vector<SlotId> former(neigh.begin(), neigh.end());
  const NodeId host = fx.net.leave(victim);
  engine.node_left(victim, former);
  for (const SlotId nb : former) {
    EXPECT_FALSE(engine.queue_of(nb).contains(victim));
    EXPECT_DOUBLE_EQ(engine.timer_of(nb),
                     fast_params(PropMode::kPropO).init_timer_s);
  }

  // Simulate a (re)join wiring the slot to two peers.
  fx.net.rejoin(victim, host);
  const auto actives = fx.net.graph().active_slots();
  std::vector<SlotId> new_neigh;
  for (const SlotId s : actives) {
    if (s != victim && new_neigh.size() < 2) new_neigh.push_back(s);
  }
  for (const SlotId nb : new_neigh) fx.net.add_edge(victim, nb);
  engine.node_joined(victim, new_neigh);
  for (const SlotId nb : new_neigh) {
    EXPECT_TRUE(engine.queue_of(nb).contains(victim));
    // The fresh neighbor enters with maximum priority.
    EXPECT_EQ(*engine.queue_of(nb).front(), victim);
  }
  // The engine keeps running without tripping checks.
  sim.run_until(500.0);
}

TEST(PropEngine, MessageDelaysStillConverge) {
  auto fx = UnstructuredFixture::make(60, 3020);
  const double before = fx.net.average_logical_link_latency();
  const auto degrees = fx.net.graph().degree_multiset();
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropO);
  params.model_message_delays = true;
  PropEngine engine(fx.net, sim, params, 20);
  engine.start();
  sim.run_until(3000.0);
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(fx.net.average_logical_link_latency(), before);
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

TEST(PropEngine, MessageDelaysDetectConflicts) {
  // Small, dense overlay with aggressive probing maximizes the chance
  // that two in-flight exchanges overlap and one is invalidated.
  auto fx = UnstructuredFixture::make(24, 3021, /*attach_links=*/5);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropO);
  params.model_message_delays = true;
  params.init_timer_s = 0.5;  // negotiation RTTs now overlap probes
  params.use_backoff = false;
  PropEngine engine(fx.net, sim, params, 21);
  engine.start();
  sim.run_until(600.0);
  // Accounting stays coherent whether or not conflicts occurred, and
  // with sub-second probing over seconds-long negotiations some must.
  EXPECT_GT(engine.stats().attempts, 1000u);
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_TRUE(fx.net.graph().active_subgraph_connected());
}

TEST(PropEngine, MessageDelaysWorkWithPropGAndChurnHooks) {
  auto fx = UnstructuredFixture::make(40, 3022);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropG);
  params.model_message_delays = true;
  PropEngine engine(fx.net, sim, params, 22);
  engine.start();
  sim.run_until(200.0);
  // A departure mid-flight: pending commits touching the victim must
  // resolve as conflicts, not crashes.
  const SlotId victim = fx.net.graph().active_slots()[3];
  const auto neigh = fx.net.graph().neighbors(victim);
  const std::vector<SlotId> former(neigh.begin(), neigh.end());
  fx.net.leave(victim);
  engine.node_left(victim, former);
  sim.run_until(2000.0);
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_TRUE(run_rule("placement-bijection",
                       {.placement = &fx.net.placement()})
                  .passed());
}

TEST(PropEngine, DelayedCommitInvalidatedByDepartureKeepsQueuesClean) {
  // Deterministic commit-conflict: one negotiation is put in flight,
  // then churn removes the counterpart before the commit lands. The
  // exchange must abort as a conflict and every survivor's neighbor
  // queue must still mirror its graph neighborhood exactly.
  auto fx = UnstructuredFixture::make(30, 3030);
  Scheduler sim;
  PropParams params = fast_params(PropMode::kPropO);
  params.model_message_delays = true;
  params.init_timer_s = 1e6;  // no autonomous probes interfere
  PropEngine engine(fx.net, sim, params, 25);
  engine.start();

  // Drive attempts until one negotiation is actually in flight (walks
  // can fail or plans can miss MIN_VAR; none commits synchronously when
  // delays are modeled).
  const auto slots = fx.net.graph().active_slots();
  SlotId initiator = kInvalidSlot;
  for (const SlotId u : slots) {
    const std::uint64_t before = engine.stats().planned;
    engine.attempt(u);
    if (engine.stats().planned > before) {
      initiator = u;
      break;
    }
  }
  ASSERT_NE(initiator, kInvalidSlot);
  ASSERT_EQ(engine.stats().exchanges, 0u);

  // Every potential counterpart departs before the commit round-trip
  // lands: the pending exchange must resolve as a conflict, never as a
  // commit, and no survivor may keep a dead neighbor queued.
  for (const SlotId v : slots) {
    if (v == initiator || !fx.net.graph().is_active(v)) continue;
    const auto neigh = fx.net.graph().neighbors(v);
    const std::vector<SlotId> former(neigh.begin(), neigh.end());
    fx.net.leave(v);
    engine.node_left(v, former);
  }
  sim.run_until(1e7);

  EXPECT_EQ(engine.stats().exchanges, 0u);
  EXPECT_GT(engine.stats().commit_conflicts, 0u);
  // Queue integrity: every active slot's queue holds exactly its active
  // graph neighbors — no stale entries from the aborted exchange, no
  // missing ones.
  for (const SlotId s : fx.net.graph().active_slots()) {
    const auto neigh = fx.net.graph().neighbors(s);
    EXPECT_EQ(engine.queue_of(s).size(), neigh.size());
    for (const SlotId v : neigh) {
      EXPECT_TRUE(engine.queue_of(s).contains(v))
          << "slot " << s << " queue lost neighbor " << v;
    }
  }
}

TEST(PropEngine, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    auto fx = UnstructuredFixture::make(40, 3013);
    Scheduler sim;
    PropEngine engine(fx.net, sim, fast_params(PropMode::kPropG), seed);
    engine.start();
    sim.run_until(1000.0);
    return std::pair{engine.stats().exchanges,
                     fx.net.average_logical_link_latency()};
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// PROP-G over a Chord overlay: stretch of lookups improves and the ring
// structure is untouched.
TEST(PropEngine, PropGOnChordImprovesLookupLatency) {
  Rng rng(3014);
  const auto topo =
      make_transit_stub(testing::tiny_transit_stub_config(), rng);
  LatencyOracle oracle(topo.graph);
  const auto ring = ChordRing::build_random(48, ChordConfig{}, rng);
  const auto host_idx = rng.sample_indices(topo.stub_nodes.size(), 48);
  std::vector<NodeId> hosts;
  for (const auto i : host_idx) hosts.push_back(topo.stub_nodes[i]);
  OverlayNetwork net = make_chord_overlay(ring, hosts, oracle);

  auto avg_lookup = [&] {
    Rng qrng(1);
    double sum = 0.0;
    const int q = 200;
    for (int i = 0; i < q; ++i) {
      const SlotId src = static_cast<SlotId>(qrng.uniform(48));
      SlotId dst;
      do {
        dst = static_cast<SlotId>(qrng.uniform(48));
      } while (dst == src);
      const auto path = ring.lookup_path(src, ring.id_of(dst));
      sum += path_latency(net, path);
    }
    return sum / q;
  };

  const double before = avg_lookup();
  Scheduler sim;
  PropEngine engine(net, sim, fast_params(PropMode::kPropG), 15);
  engine.start();
  sim.run_until(3000.0);
  const double after = avg_lookup();
  EXPECT_GT(engine.stats().exchanges, 0u);
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace propsim
