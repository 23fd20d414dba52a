#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/prop_engine.h"
#include "fixtures.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

TEST(ExchangeObserver, SeesEveryCommittedExchange) {
  auto fx = UnstructuredFixture::make(40, 9501);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, params, 1);
  std::vector<PropEngine::ExchangeEvent> events;
  engine.set_observer(
      [&](const PropEngine::ExchangeEvent& e) { events.push_back(e); });
  engine.start();
  sim.run_until(1000.0);
  ASSERT_EQ(events.size(), engine.stats().exchanges);
  ASSERT_GT(events.size(), 0u);
  double last_time = 0.0;
  double var_sum = 0.0;
  for (const auto& e : events) {
    EXPECT_GE(e.time, last_time);
    last_time = e.time;
    EXPECT_GT(e.var, 0.0);  // only positive-Var exchanges commit
    EXPECT_NE(e.u, e.v);
    EXPECT_EQ(e.mode, PropMode::kPropG);
    EXPECT_EQ(e.transferred, 0u);
    var_sum += e.var;
  }
  EXPECT_NEAR(var_sum, engine.stats().total_var_gain, 1e-6);
}

TEST(ExchangeObserver, PropOReportsTransferSizes) {
  auto fx = UnstructuredFixture::make(40, 9502);
  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropO;
  params.m = 2;
  params.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, params, 2);
  std::size_t observed = 0;
  engine.set_observer([&](const PropEngine::ExchangeEvent& e) {
    ++observed;
    EXPECT_EQ(e.mode, PropMode::kPropO);
    EXPECT_GE(e.transferred, 1u);
    EXPECT_LE(e.transferred, 2u);
  });
  engine.start();
  sim.run_until(1000.0);
  EXPECT_EQ(observed, engine.stats().exchanges);
  EXPECT_GT(observed, 0u);
}

TEST(ExchangeObserver, FiresUnderDelayedCommitsToo) {
  auto fx = UnstructuredFixture::make(40, 9503);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  params.model_message_delays = true;
  PropEngine engine(fx.net, sim, params, 3);
  std::size_t observed = 0;
  engine.set_observer(
      [&](const PropEngine::ExchangeEvent&) { ++observed; });
  engine.start();
  sim.run_until(1500.0);
  EXPECT_EQ(observed, engine.stats().exchanges);
  EXPECT_GT(observed, 0u);
}

TEST(OracleWarm, ParallelWarmMatchesLazyAnswers) {
  auto fx = UnstructuredFixture::make(40, 9504);
  const auto hosts = fx.net.placement().bound_hosts();
  // Fresh oracle over the same graph, warmed in parallel.
  LatencyOracle warmed(fx.topo.graph);
  ThreadPool pool(4);
  warmed.warm(hosts, pool);
  EXPECT_EQ(warmed.cached_sources(), hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); j += 7) {
      EXPECT_DOUBLE_EQ(warmed.latency(hosts[i], hosts[j]),
                       fx.oracle.latency(hosts[i], hosts[j]));
    }
  }
}

TEST(OracleWarm, IdempotentAndDeduplicating) {
  auto fx = UnstructuredFixture::make(20, 9505);
  LatencyOracle oracle(fx.topo.graph);
  ThreadPool pool(2);
  std::vector<NodeId> sources{1, 1, 2, 2, 3};
  oracle.warm(sources, pool);
  EXPECT_EQ(oracle.cached_sources(), 3u);
  oracle.warm(sources, pool);  // second call is a no-op
  EXPECT_EQ(oracle.cached_sources(), 3u);
}

}  // namespace
}  // namespace propsim
