#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/id_space.h"
#include "common/indexed_priority_queue.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timeseries.h"

namespace propsim {
namespace {

// ----------------------------------------------------------- IdSpace ----

TEST(IdSpace, IntervalOpenClosed) {
  EXPECT_TRUE(in_interval_oc(1, 5, 3));
  EXPECT_TRUE(in_interval_oc(1, 5, 5));
  EXPECT_FALSE(in_interval_oc(1, 5, 1));
  EXPECT_FALSE(in_interval_oc(1, 5, 7));
  // Wrapping interval.
  EXPECT_TRUE(in_interval_oc(5, 1, 7));
  EXPECT_TRUE(in_interval_oc(5, 1, 0));
  EXPECT_TRUE(in_interval_oc(5, 1, 1));
  EXPECT_FALSE(in_interval_oc(5, 1, 3));
  // Degenerate (full ring).
  EXPECT_TRUE(in_interval_oc(4, 4, 0));
  EXPECT_TRUE(in_interval_oc(4, 4, 4));
}

TEST(IdSpace, IntervalOpenOpen) {
  EXPECT_TRUE(in_interval_oo(1, 5, 3));
  EXPECT_FALSE(in_interval_oo(1, 5, 5));
  EXPECT_FALSE(in_interval_oo(1, 5, 1));
  EXPECT_TRUE(in_interval_oo(5, 1, 0));
  EXPECT_FALSE(in_interval_oo(5, 1, 1));
  EXPECT_TRUE(in_interval_oo(4, 4, 9));
  EXPECT_FALSE(in_interval_oo(4, 4, 4));
}

TEST(IdSpace, ClockwiseDistanceWraps) {
  EXPECT_EQ(clockwise_distance(10, 15), 5u);
  EXPECT_EQ(clockwise_distance(15, 10), ~std::uint64_t{0} - 4);
}

TEST(IdSpace, RingDistanceSymmetricAndWrapping) {
  EXPECT_EQ(id_ring_distance(10, 14), 4u);
  EXPECT_EQ(id_ring_distance(14, 10), 4u);
  EXPECT_EQ(id_ring_distance(0, ~DhtId{0}), 1u);
}

TEST(IdSpace, HexDigitsAndSharedPrefix) {
  const DhtId id = 0x0123456789ABCDEFULL;
  EXPECT_EQ(hex_digit(id, 0), 0x0u);
  EXPECT_EQ(hex_digit(id, 1), 0x1u);
  EXPECT_EQ(hex_digit(id, 15), 0xFu);
  EXPECT_EQ(hex_shared_prefix(id, id), 16u);
  EXPECT_EQ(hex_shared_prefix(0x1234ULL << 48, 0x1235ULL << 48), 3u);
  EXPECT_EQ(hex_shared_prefix(0xFULL << 60, 0x1ULL << 60), 0u);
}

TEST(IdSpace, PrefixCellIsRowTimesBasePlusNextDigit) {
  // Shared prefix "12" (row 2); the other id's next digit is 0xA.
  EXPECT_EQ(prefix_cell(0x1234ULL << 48, 0x12A0ULL << 48), 2 * kHexBase + 0xA);
  EXPECT_EQ(prefix_cell(0, ~DhtId{0}), 0xFu);
  EXPECT_EQ(hex_cell(2, 0xA), 2 * kHexBase + 0xA);
}

TEST(IdSpace, PrefixTablesTieRuleIsTheComparator) {
  // Ids 1 and 2 share slot 0's cell (row 0, digit 1); every rank ties.
  const std::vector<DhtId> ids{0x00ULL << 56, 0x10ULL << 56, 0x11ULL << 56};
  const auto flat = [](std::uint32_t, std::uint32_t) { return 0; };
  const std::uint32_t empty = ~std::uint32_t{0};
  const auto keep = prefix_tables(ids, empty, flat, std::less<>{});
  const auto take = prefix_tables(ids, empty, flat, std::less_equal<>{});
  EXPECT_EQ(keep[0][hex_cell(0, 1)], 1u);
  EXPECT_EQ(take[0][hex_cell(0, 1)], 2u);
  EXPECT_EQ(keep[0][hex_cell(0, 2)], empty);
  // Slot 1 files slot 2 at row 1, digit 1, and slot 0 at row 0, digit 0.
  EXPECT_EQ(keep[1][hex_cell(1, 1)], 2u);
  EXPECT_EQ(keep[1][hex_cell(0, 0)], 0u);
}

TEST(IdSpace, DrawIsTheRngStreamWithRepeatsSkipped) {
  Rng rng(31);
  Rng reference(31);
  const std::vector<DhtId> ids = draw_distinct_ids(500, rng);
  ASSERT_EQ(ids.size(), 500u);
  EXPECT_EQ(std::set<DhtId>(ids.begin(), ids.end()).size(), 500u);
  for (const DhtId id : ids) EXPECT_EQ(id, reference.next());
  EXPECT_EQ(rng.next(), reference.next());  // no draw beyond the last id
}

TEST(IdSpace, DuplicateIdsFailTheCheck) {
  check_distinct_ids({7, 1, 9});
  EXPECT_DEATH(check_distinct_ids({7, 1, 7}), "adjacent_find");
}

// ---------------------------------------------------------------- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(31);
  for (std::size_t k : {0ULL, 1ULL, 5ULL, 20ULL}) {
    const auto s = rng.sample_indices(20, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (const auto i : s) EXPECT_LT(i, 20u);
  }
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(37);
  const auto s = rng.sample_indices(8, 8);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 8u);
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a(41);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, PickUniformOverElements) {
  Rng rng(43);
  const std::vector<int> v{10, 20, 30};
  std::array<int, 3> counts{};
  for (int i = 0; i < 3000; ++i) {
    const int x = rng.pick(v);
    counts[static_cast<std::size_t>(x / 10 - 1)]++;
  }
  for (const int c : counts) EXPECT_GT(c, 800);
}

// --------------------------------------------- IndexedPriorityQueue ----

TEST(IndexedPriorityQueue, PopsInPriorityOrder) {
  IndexedPriorityQueue<double> q(10);
  q.push_or_update(3, 5.0);
  q.push_or_update(7, 1.0);
  q.push_or_update(1, 3.0);
  EXPECT_EQ(q.pop(), 7u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_TRUE(q.empty());
}

TEST(IndexedPriorityQueue, DecreaseKeyMovesUp) {
  IndexedPriorityQueue<double> q(4);
  q.push_or_update(0, 10.0);
  q.push_or_update(1, 20.0);
  q.push_or_update(1, 5.0);  // decrease
  EXPECT_EQ(q.top_key(), 1u);
  EXPECT_DOUBLE_EQ(q.top_priority(), 5.0);
}

TEST(IndexedPriorityQueue, IncreaseKeyMovesDown) {
  IndexedPriorityQueue<double> q(4);
  q.push_or_update(0, 1.0);
  q.push_or_update(1, 2.0);
  q.push_or_update(0, 9.0);  // increase
  EXPECT_EQ(q.top_key(), 1u);
}

TEST(IndexedPriorityQueue, EraseRemovesKey) {
  IndexedPriorityQueue<double> q(4);
  q.push_or_update(0, 1.0);
  q.push_or_update(1, 2.0);
  EXPECT_TRUE(q.erase(0));
  EXPECT_FALSE(q.erase(0));
  EXPECT_FALSE(q.contains(0));
  EXPECT_EQ(q.pop(), 1u);
}

TEST(IndexedPriorityQueue, StressAgainstSort) {
  Rng rng(47);
  IndexedPriorityQueue<double> q(200);
  std::vector<double> prio(200);
  for (std::size_t i = 0; i < 200; ++i) {
    prio[i] = rng.uniform_double();
    q.push_or_update(i, prio[i]);
  }
  // Random updates.
  for (int i = 0; i < 500; ++i) {
    const std::size_t k = static_cast<std::size_t>(rng.uniform(200));
    prio[k] = rng.uniform_double();
    q.push_or_update(k, prio[k]);
  }
  std::vector<std::size_t> popped;
  while (!q.empty()) popped.push_back(q.pop());
  ASSERT_EQ(popped.size(), 200u);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(prio[popped[i - 1]], prio[popped[i]]);
  }
}

TEST(IndexedPriorityQueue, ClearEmptiesQueue) {
  IndexedPriorityQueue<int> q(5);
  q.push_or_update(2, 1);
  q.push_or_update(4, 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(2));
  q.push_or_update(2, 7);
  EXPECT_EQ(q.pop(), 2u);
}

// --------------------------------------------------------- statistics ----

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Samples, QuantileInterpolation) {
  Samples s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.3), 42.0);
}

// --------------------------------------------------------- timeseries ----

TEST(TimeSeries, RecordAndQuery) {
  TimeSeries ts("x");
  ts.record(0.0, 10.0);
  ts.record(5.0, 20.0);
  ts.record(10.0, 15.0);
  EXPECT_DOUBLE_EQ(ts.first_value(), 10.0);
  EXPECT_DOUBLE_EQ(ts.last_value(), 15.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(4.9), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(5.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 15.0);
}

TEST(TimeSeries, CsvAlignment) {
  TimeSeries a("a");
  a.record(0.0, 1.0);
  a.record(10.0, 3.0);
  TimeSeries b("b");
  b.record(5.0, 7.0);
  b.record(10.0, 8.0);
  const std::string csv = series_to_csv({a, b}, 3);
  EXPECT_NE(csv.find("time,a,b"), std::string::npos);
  EXPECT_NE(csv.find("0,1,7"), std::string::npos);   // b holds first value
  EXPECT_NE(csv.find("5,1,7"), std::string::npos);
  EXPECT_NE(csv.find("10,3,8"), std::string::npos);
}

// --------------------------------------------------------------- json ----

TEST(Json, Scalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ArraysAndObjects) {
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json::array());
  EXPECT_EQ(arr.dump(), "[1,\"two\",[]]");
  EXPECT_EQ(arr.size(), 3u);

  Json obj = Json::object();
  obj.set("b", 2).set("a", 1);
  // Keys render sorted (std::map), which keeps output deterministic.
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");
}

TEST(Json, NestedAndPretty) {
  Json obj = Json::object();
  Json inner = Json::array();
  inner.push_back(1).push_back(2);
  obj.set("xs", std::move(inner));
  EXPECT_EQ(obj.dump(), "{\"xs\":[1,2]}");
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("{\n  \"xs\": [\n    1,\n    2\n  ]\n}"),
            std::string::npos);
}

TEST(Json, LargeIntegersStayIntegral) {
  EXPECT_EQ(Json(std::uint64_t{123456789}).dump(), "123456789");
  EXPECT_EQ(Json(std::int64_t{-42}).dump(), "-42");
}

TEST(JsonParse, RoundTripsBuilderOutput) {
  Json obj = Json::object();
  obj.set("name", "propsim").set("pi", 3.25).set("ok", true);
  Json xs = Json::array();
  xs.push_back(1).push_back(Json());
  obj.set("xs", std::move(xs));
  std::string error;
  const auto parsed = Json::parse(obj.dump(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), obj.dump());
  EXPECT_EQ(parsed->find("name")->as_string(), "propsim");
  EXPECT_DOUBLE_EQ(parsed->find("pi")->as_double(), 3.25);
  EXPECT_TRUE(parsed->find("ok")->as_bool());
  EXPECT_TRUE(parsed->find("xs")->array_items()[1].is_null());
  EXPECT_EQ(parsed->find("missing"), nullptr);
}

TEST(JsonParse, HandlesEscapesAndUnicode) {
  std::string error;
  const auto parsed =
      Json::parse(R"({"s": "a\"b\\c\nAé"})", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->find("s")->as_string(), "a\"b\\c\nA\xc3\xa9");
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8) {
  std::string error;
  const auto parsed = Json::parse(R"(["😀"])", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->array_items()[0].as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "01", "1e", "\"unterminated",
        "{\"a\":1} trailing", "nul", "[1 2]", "{\"a\" 1}"}) {
    std::string error;
    EXPECT_FALSE(Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(400, '[');
  deep += std::string(400, ']');
  EXPECT_FALSE(Json::parse(deep).has_value());
}

TEST(JsonParse, NumbersParseExactly) {
  std::string error;
  const auto parsed =
      Json::parse("[0, -1, 2.5, 1e3, 1.25e-2, 18446744073709551615]", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& xs = parsed->array_items();
  EXPECT_DOUBLE_EQ(xs[0].as_double(), 0.0);
  EXPECT_DOUBLE_EQ(xs[1].as_double(), -1.0);
  EXPECT_DOUBLE_EQ(xs[2].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(xs[3].as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(xs[4].as_double(), 0.0125);
  EXPECT_DOUBLE_EQ(xs[5].as_double(), 18446744073709551615.0);
}

// -------------------------------------------------------------- table ----

TEST(Table, AsciiAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2.5"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("value"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("beta,2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumericRowFormatting) {
  Table t({"a", "b"});
  t.add_row_values({1.5, 2.25});
  EXPECT_NE(t.to_csv().find("1.5,2.25"), std::string::npos);
}

}  // namespace
}  // namespace propsim
