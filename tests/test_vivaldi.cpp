#include <gtest/gtest.h>

#include "common/rng.h"
#include "fixtures.h"
#include "topology/vivaldi.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

TEST(Vivaldi, EstimateIsSymmetricAndZeroOnSelf) {
  VivaldiSystem viv(10, 1);
  EXPECT_DOUBLE_EQ(viv.estimate(3, 3), 0.0);
  EXPECT_NEAR(viv.estimate(2, 7), viv.estimate(7, 2), 1e-12);
  EXPECT_GT(viv.estimate(2, 7), 0.0);  // heights keep it positive
}

TEST(Vivaldi, SingleSpringConverges) {
  // Two nodes, true latency 50 ms: alternating updates must drive the
  // estimate toward 50.
  VivaldiSystem viv(2, 2);
  for (int i = 0; i < 500; ++i) {
    viv.update(0, 1, 50.0);
    viv.update(1, 0, 50.0);
  }
  EXPECT_NEAR(viv.estimate(0, 1), 50.0, 5.0);
  EXPECT_LT(viv.error_of(0), 0.2);
}

TEST(Vivaldi, TriangleEmbedsExactly) {
  // Latencies 30/40/50 satisfy the triangle inequality and embed in the
  // plane, so a 3-d space must fit them well.
  VivaldiSystem viv(3, 3);
  Rng rng(4);
  for (int round = 0; round < 3000; ++round) {
    const int pick = static_cast<int>(rng.uniform(6));
    const NodeId pairs[6][2] = {{0, 1}, {1, 0}, {0, 2},
                                {2, 0}, {1, 2}, {2, 1}};
    const double rtts[6] = {30, 30, 40, 40, 50, 50};
    viv.update(pairs[pick][0], pairs[pick][1], rtts[pick]);
  }
  EXPECT_NEAR(viv.estimate(0, 1), 30.0, 6.0);
  EXPECT_NEAR(viv.estimate(0, 2), 40.0, 8.0);
  EXPECT_NEAR(viv.estimate(1, 2), 50.0, 10.0);
}

TEST(Vivaldi, TrainingReducesMedianErrorOnTransitStub) {
  auto fx = UnstructuredFixture::make(60, 9701);
  const auto hosts = fx.net.placement().bound_hosts();
  VivaldiSystem viv(fx.topo.graph.node_count(), 5);
  Rng rng(6);
  const double before =
      viv.median_relative_error(hosts, fx.oracle, 500, rng);
  Rng trng(7);
  viv.train(hosts, fx.oracle, 30000, trng);
  Rng rng2(6);
  const double after =
      viv.median_relative_error(hosts, fx.oracle, 500, rng2);
  EXPECT_LT(after, before * 0.5);
  // Trained Vivaldi on transit-stub topologies typically reaches
  // 10-30% median relative error; assert a loose ceiling.
  EXPECT_LT(after, 0.45);
}

TEST(Vivaldi, ErrorsShrinkWithTraining) {
  auto fx = UnstructuredFixture::make(30, 9702);
  const auto hosts = fx.net.placement().bound_hosts();
  VivaldiSystem viv(fx.topo.graph.node_count(), 8);
  Rng trng(9);
  viv.train(hosts, fx.oracle, 20000, trng);
  double avg_error = 0.0;
  for (const NodeId h : hosts) avg_error += viv.error_of(h);
  avg_error /= static_cast<double>(hosts.size());
  EXPECT_LT(avg_error, 0.5);  // started at 1.0
}

TEST(Vivaldi, DeterministicForSeed) {
  auto run = [] {
    VivaldiSystem viv(4, 42);
    for (int i = 0; i < 100; ++i) {
      viv.update(0, 1, 20.0);
      viv.update(1, 2, 30.0);
      viv.update(2, 3, 10.0);
    }
    return viv.estimate(0, 3);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace propsim
