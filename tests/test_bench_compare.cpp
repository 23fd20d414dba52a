#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/json.h"
#include "obs/bench_compare.h"

namespace propsim {
namespace {

using obs::CompareOptions;
using obs::CompareReport;
using obs::MetricDirection;

Json doc(const std::string& schema, double wall_ms, double qps,
         double final_metric) {
  Json out = Json::object();
  out.set("schema", schema).set("version", 1);
  Json bench = Json::object();
  bench.set("wall_ms", wall_ms).set("qps", qps);
  out.set("bench", std::move(bench));
  Json metric = Json::object();
  metric.set("final", final_metric);
  out.set("metric", std::move(metric));
  return out;
}

TEST(MetricDirection, InferredFromNameTokens) {
  EXPECT_EQ(obs::metric_direction("scales.0.wall_ms"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(obs::metric_direction("peak_rss_mb"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(obs::metric_direction("oracle.qps"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(obs::metric_direction("metric.final"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(obs::metric_direction("spec.nodes"),
            MetricDirection::kInformational);
  EXPECT_EQ(obs::metric_direction("spec.seed"),
            MetricDirection::kInformational);
}

TEST(FlattenNumeric, WalksObjectsAndArrays) {
  std::string error;
  const auto parsed = Json::parse(
      R"({"a": {"b": 2.5}, "list": [1, {"x": 3}], "s": "str", "f": false})",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  std::map<std::string, double> flat;
  obs::flatten_numeric(*parsed, "", flat);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_DOUBLE_EQ(flat.at("a.b"), 2.5);
  EXPECT_DOUBLE_EQ(flat.at("list.0"), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("list.1.x"), 3.0);
}

TEST(CompareMetrics, IdenticalDocumentsPass) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  const CompareReport r = obs::compare_metrics(base, base, CompareOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions(), 0u);
  EXPECT_FALSE(r.deltas.empty());
}

TEST(CompareMetrics, WorseningPastToleranceIsARegression) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  // wall_ms +50% (worse), qps unchanged, metric unchanged.
  const Json cand = doc("propsim.bench.oracle", 150.0, 5000.0, 2.0);
  CompareOptions opt;
  opt.tolerance_pct = 25.0;
  const CompareReport r = obs::compare_metrics(base, cand, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.regressions(), 1u);
  for (const auto& d : r.deltas) {
    if (!d.regression) continue;
    EXPECT_EQ(d.path, "bench.wall_ms");
    EXPECT_NEAR(d.worsening_pct, 50.0, 1e-9);
  }
  // A generous threshold lets the same pair pass.
  opt.tolerance_pct = 90.0;
  EXPECT_TRUE(obs::compare_metrics(base, cand, opt).ok());
}

TEST(CompareMetrics, DirectionAwareness) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  // qps halved = worse for a higher-is-better metric; wall_ms halved =
  // improvement for a lower-is-better one.
  const Json cand = doc("propsim.bench.oracle", 50.0, 2500.0, 2.0);
  CompareOptions opt;
  opt.tolerance_pct = 25.0;
  const CompareReport r = obs::compare_metrics(base, cand, opt);
  ASSERT_EQ(r.regressions(), 1u);
  for (const auto& d : r.deltas) {
    if (d.path == "bench.qps") {
      EXPECT_TRUE(d.regression);
    }
    if (d.path == "bench.wall_ms") {
      EXPECT_FALSE(d.regression);
      EXPECT_LT(d.worsening_pct, 0.0);  // improved
    }
  }
}

TEST(CompareMetrics, PerMetricOverrideWins) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  const Json cand = doc("propsim.bench.oracle", 150.0, 5000.0, 2.0);
  CompareOptions opt;
  opt.tolerance_pct = 25.0;
  opt.per_metric.emplace_back("wall_ms", 75.0);
  EXPECT_TRUE(obs::compare_metrics(base, cand, opt).ok());
  // Negative tolerance demotes the metric to informational.
  opt.per_metric.clear();
  opt.per_metric.emplace_back("wall_ms", -1.0);
  const CompareReport r = obs::compare_metrics(base, cand, opt);
  EXPECT_TRUE(r.ok());
  for (const auto& d : r.deltas) {
    if (d.path == "bench.wall_ms") {
      EXPECT_EQ(d.direction, MetricDirection::kInformational);
    }
  }
}

TEST(CompareMetrics, SchemaMismatchIsAnErrorUnlessAllowed) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  const Json cand = doc("propsim.result", 100.0, 5000.0, 2.0);
  CompareOptions opt;
  EXPECT_FALSE(obs::compare_metrics(base, cand, opt).ok());
  opt.require_same_schema = false;
  EXPECT_TRUE(obs::compare_metrics(base, cand, opt).ok());
}

TEST(CompareMetrics, ZeroBaselineGrowthIsARegression) {
  std::string error;
  const auto base =
      Json::parse(R"({"schema":"x","version":1,"wall_ms":0})", &error);
  const auto cand =
      Json::parse(R"({"schema":"x","version":1,"wall_ms":10})", &error);
  ASSERT_TRUE(base && cand);
  const CompareReport r =
      obs::compare_metrics(*base, *cand, CompareOptions{});
  EXPECT_EQ(r.regressions(), 1u);
}

TEST(CompareMetrics, MissingMetricsAreNotedNotFatal) {
  std::string error;
  const auto base = Json::parse(
      R"({"schema":"x","version":1,"wall_ms":5,"extra":7})", &error);
  const auto cand =
      Json::parse(R"({"schema":"x","version":1,"wall_ms":5})", &error);
  ASSERT_TRUE(base && cand);
  const CompareReport r =
      obs::compare_metrics(*base, *cand, CompareOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.notes.empty());
}

TEST(CompareMetrics, StrictBaselineFailsWhenTheCandidateLosesMetrics) {
  std::string error;
  const auto base = Json::parse(
      R"({"schema":"x","version":1,"wall_ms":5,"extra":7,"rows":[1,2]})",
      &error);
  const auto cand = Json::parse(
      R"({"schema":"x","version":1,"wall_ms":5,"rows":[1]})", &error);
  ASSERT_TRUE(base && cand);
  CompareOptions opt;
  opt.strict_baseline = true;
  const CompareReport r = obs::compare_metrics(*base, *cand, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.required_failures.size(), 1u);
  const std::string& failure = r.required_failures[0];
  EXPECT_NE(failure.find("2 baseline metric(s) absent"), std::string::npos);
  EXPECT_NE(failure.find("extra"), std::string::npos);
  EXPECT_NE(failure.find("rows.1"), std::string::npos);
  // The same documents compare clean once nothing is missing.
  EXPECT_TRUE(obs::compare_metrics(*base, *base, opt).ok());
}

TEST(CompareMetrics, RequireMetricPresentInBothPasses) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  CompareOptions opt;
  opt.require_metrics = {"qps", "wall_ms"};
  const CompareReport r = obs::compare_metrics(base, base, opt);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.required_failures.empty());
}

TEST(CompareMetrics, RequireMetricAbsentFromCandidateFails) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  CompareOptions opt;
  opt.require_metrics = {"hardware.cores"};
  const CompareReport r = obs::compare_metrics(base, base, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.required_failures.size(), 1u);
  EXPECT_NE(r.required_failures[0].find("hardware.cores"),
            std::string::npos);
  // A required-metric failure is a gate failure, not an invocation
  // error — the CLI maps it to exit 1, not 2.
  EXPECT_TRUE(r.errors.empty());
}

TEST(CompareMetrics, RequireMetricCandidateOnlyWarnsUnlessStrict) {
  const Json base = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  Json cand = doc("propsim.bench.oracle", 100.0, 5000.0, 2.0);
  Json hw = Json::object();
  hw.set("cores", static_cast<std::uint64_t>(4));
  cand.set("hardware", std::move(hw));

  CompareOptions opt;
  opt.require_metrics = {"hardware.cores"};
  const CompareReport lax = obs::compare_metrics(base, cand, opt);
  EXPECT_TRUE(lax.ok());
  EXPECT_TRUE(lax.required_failures.empty());
  bool noted = false;
  for (const std::string& n : lax.notes) {
    noted = noted || n.find("hardware.cores") != std::string::npos;
  }
  EXPECT_TRUE(noted);

  opt.strict_baseline = true;
  const CompareReport strict = obs::compare_metrics(base, cand, opt);
  EXPECT_FALSE(strict.ok());
  ASSERT_EQ(strict.required_failures.size(), 1u);
  EXPECT_NE(strict.required_failures[0].find("regenerate"),
            std::string::npos);
}

}  // namespace
}  // namespace propsim
