#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/prop_engine.h"
#include "obs/event_bus.h"
#include "fixtures.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

/// One exchange-commit event as the trace sink streamed it.
struct Commit {
  double t = 0.0;
  double u = 0.0;
  double v = 0.0;
  double var = 0.0;
  double transferred = 0.0;  // m for PROP-O, 0 for PROP-G
};

/// Starts `engine`, runs `sim` to `horizon_s` with a trace sink on the
/// overlay's bus and returns the streamed exchange-commit events.
std::vector<Commit> run_reading_commits(OverlayNetwork& net, Scheduler& sim,
                                        PropEngine& engine, double horizon_s) {
  const std::string path =
      ::testing::TempDir() + "observability_commits.jsonl";
  {
    obs::TraceSink sink(path);
    obs::EventBus bus;
    bus.set_clock([&sim] { return sim.now(); });
    bus.attach_sink(&sink);
    net.set_trace(&bus);
    engine.start();
    sim.run_until(horizon_s);
    net.set_trace(nullptr);
    bus.finalize();
    sink.close();
  }
  std::vector<Commit> commits;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto e = Json::parse(line);
    if (!e || e->find("kind") == nullptr ||
        e->find("kind")->as_string() != "exchange-commit") {
      continue;
    }
    commits.push_back({e->find("t")->as_double(), e->find("a")->as_double(),
                       e->find("b")->as_double(), e->find("value")->as_double(),
                       e->find("detail")->as_double()});
  }
  std::remove(path.c_str());
  return commits;
}

TEST(CommitStream, CarriesEveryCommittedExchange) {
  auto fx = UnstructuredFixture::make(40, 9501);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, params, 1);
  const auto commits = run_reading_commits(fx.net, sim, engine, 1000.0);
  ASSERT_EQ(commits.size(), engine.stats().exchanges);
  ASSERT_GT(commits.size(), 0u);
  double last_time = 0.0;
  double var_sum = 0.0;
  for (const Commit& c : commits) {
    EXPECT_GE(c.t, last_time);
    last_time = c.t;
    EXPECT_GT(c.var, 0.0);  // only positive-Var exchanges commit
    EXPECT_NE(c.u, c.v);
    EXPECT_EQ(c.transferred, 0.0);  // PROP-G moves no neighbours
    var_sum += c.var;
  }
  EXPECT_NEAR(var_sum, engine.stats().total_var_gain, 1e-6);
}

TEST(CommitStream, PropOReportsTransferSizes) {
  auto fx = UnstructuredFixture::make(40, 9502);
  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropO;
  params.m = 2;
  params.init_timer_s = 10.0;
  PropEngine engine(fx.net, sim, params, 2);
  const auto commits = run_reading_commits(fx.net, sim, engine, 1000.0);
  EXPECT_EQ(commits.size(), engine.stats().exchanges);
  EXPECT_GT(commits.size(), 0u);
  for (const Commit& c : commits) {
    EXPECT_GE(c.transferred, 1.0);
    EXPECT_LE(c.transferred, 2.0);
  }
}

TEST(CommitStream, CarriesDelayedCommitsToo) {
  auto fx = UnstructuredFixture::make(40, 9503);
  Scheduler sim;
  PropParams params;
  params.init_timer_s = 10.0;
  params.model_message_delays = true;
  PropEngine engine(fx.net, sim, params, 3);
  const auto commits = run_reading_commits(fx.net, sim, engine, 1500.0);
  EXPECT_EQ(commits.size(), engine.stats().exchanges);
  EXPECT_GT(commits.size(), 0u);
}

}  // namespace
}  // namespace propsim
