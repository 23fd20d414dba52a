// Measurement engine: snapshot fidelity, parallel determinism (results
// bit-identical to the serial path for any thread count), scratch
// reuse, the delta-stepping fast kernel's bounded-error equivalence,
// snapshot caching, the measure_threads / measure_mode config keys,
// and golden whole-experiment JSON across thread counts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/experiment.h"
#include "app/result_json.h"
#include "chord/chord_ring.h"
#include "common/config.h"
#include "fixtures.h"
#include "measure/measure_engine.h"
#include "measure/snapshot_cache.h"
#include "metrics/metrics.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

// ----------------------------------------------------- OverlaySnapshot ----

TEST(OverlaySnapshot, MirrorsLiveAdjacencyAndLatencies) {
  auto fx = UnstructuredFixture::make(40, 7001);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  const LogicalGraph& g = fx.net.graph();
  ASSERT_EQ(snap.slot_count(), g.slot_count());
  EXPECT_EQ(snap.edge_count(), 2 * g.edge_count());
  for (SlotId s = 0; s < g.slot_count(); ++s) {
    EXPECT_EQ(snap.is_active(s), g.is_active(s));
    const auto targets = snap.targets(s);
    const auto lats = snap.latencies(s);
    const auto nbrs = g.neighbors(s);
    ASSERT_EQ(targets.size(), nbrs.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(targets[i], nbrs[i]);
      // Precomputed edge latency is the identical double slot_latency
      // returns — the determinism contract depends on exact equality.
      EXPECT_EQ(lats[i], fx.net.slot_latency(s, nbrs[i]));
    }
  }
}

TEST(OverlaySnapshot, LinkFilterPrunesAtCapture) {
  auto fx = UnstructuredFixture::make(40, 7002);
  const OverlayNetwork::LinkFilter drop = [](SlotId a, SlotId b) {
    return (a + b) % 3 != 0;
  };
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net, &drop);
  for (SlotId s = 0; s < snap.slot_count(); ++s) {
    for (const SlotId t : snap.targets(s)) EXPECT_TRUE(drop(s, t));
  }
  // Pruned-at-capture == skipped-at-relax: floods over the snapshot must
  // equal live floods under the same filter, unreachable slots included.
  MeasureScratch scratch;
  for (const SlotId src : {SlotId{0}, SlotId{5}, SlotId{17}}) {
    flood_snapshot(snap, src, nullptr, scratch);
    const auto live = fx.net.flood_latencies(src, nullptr, &drop);
    for (SlotId v = 0; v < live.size(); ++v) {
      EXPECT_EQ(scratch.distance(v), live[v]) << "src " << src << " v " << v;
    }
  }
}

TEST(FloodSnapshot, MatchesLiveFloodWithProcessingDelays) {
  auto fx = UnstructuredFixture::make(50, 7003);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  std::vector<double> proc(fx.net.graph().slot_count(), 0.0);
  for (std::size_t s = 0; s < proc.size(); s += 3) proc[s] = 7.5;
  MeasureScratch scratch;  // reused across every source
  for (SlotId src = 0; src < 50; ++src) {
    flood_snapshot(snap, src, &proc, scratch);
    const auto live = fx.net.flood_latencies(src, &proc);
    for (SlotId v = 0; v < live.size(); ++v) {
      EXPECT_EQ(scratch.distance(v), live[v]) << "src " << src << " v " << v;
    }
  }
}

// ----------------------------------------------- fixed-point encoding ----

TEST(FixedPoint, GridAndOffGridQuantization) {
  // Transit-stub edge latencies are small integers of milliseconds;
  // integers sit exactly on the 2^-20 fixed-point grid.
  EXPECT_EQ(OverlaySnapshot::quantize_ms(5.0),
            5ull << OverlaySnapshot::kFxFracBits);
  EXPECT_EQ(OverlaySnapshot::quantize_ms(0.0), 0ull);
  // Off-grid values round to the nearest grid point: half-ULP error.
  const double ms = 7.3;
  const std::uint64_t fx = OverlaySnapshot::quantize_ms(ms);
  ASSERT_LE(fx, OverlaySnapshot::kFxMaxEdge);
  EXPECT_LE(std::fabs(static_cast<double>(fx) / OverlaySnapshot::kFxPerMs -
                      ms),
            0.5 / OverlaySnapshot::kFxPerMs);
  // Unencodable values come back as sentinels above kFxMaxEdge so
  // capture can mark the snapshot !fixed_point_ok() instead of
  // silently wrapping.
  EXPECT_GT(OverlaySnapshot::quantize_ms(-1.0), OverlaySnapshot::kFxMaxEdge);
  EXPECT_GT(OverlaySnapshot::quantize_ms(1e12), OverlaySnapshot::kFxMaxEdge);
  EXPECT_GT(
      OverlaySnapshot::quantize_ms(std::numeric_limits<double>::infinity()),
      OverlaySnapshot::kFxMaxEdge);
}

TEST(FixedPoint, SnapshotCarriesQuantizedEdges) {
  auto fx = UnstructuredFixture::make(40, 7020);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  ASSERT_TRUE(snap.fixed_point_ok());
  for (SlotId s = 0; s < snap.slot_count(); ++s) {
    const auto ms = snap.latencies(s);
    const auto fxs = snap.latencies_fx(s);
    ASSERT_EQ(ms.size(), fxs.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
      EXPECT_EQ(fxs[i], OverlaySnapshot::quantize_ms(ms[i]));
      EXPECT_GE(fxs[i], snap.min_edge_fx());
    }
  }
}

// ----------------------------------------------- delta-stepping flood ----

TEST(FloodSnapshotFast, MatchesExactWithinQuantizationBound) {
  auto fx = UnstructuredFixture::make(50, 7021);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  ASSERT_TRUE(snap.fixed_point_ok());
  // Off-grid processing delays force nonzero quantization error (the
  // topology's own edge latencies are integral, hence exact).
  const std::size_t n = snap.slot_count();
  std::vector<double> proc(n, 0.0);
  std::vector<std::uint32_t> proc_fx(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    proc[s] = 0.1 * static_cast<double>(s % 7);
    proc_fx[s] =
        static_cast<std::uint32_t>(OverlaySnapshot::quantize_ms(proc[s]));
  }
  MeasureScratch exact;
  FastMeasureScratch fast;
  for (SlotId src = 0; src < n; ++src) {
    flood_snapshot(snap, src, &proc, exact);
    flood_snapshot_fast(snap, src, &proc_fx, fast);
    for (SlotId v = 0; v < n; ++v) {
      const double e = exact.distance(v);
      const double f = fast.distance(v);
      if (std::isinf(e)) {
        EXPECT_TRUE(std::isinf(f)) << "src " << src << " v " << v;
        continue;
      }
      EXPECT_NEAR(f, e, 1e-6 * std::max(e, 1.0))
          << "src " << src << " v " << v;
    }
  }
}

TEST(FloodSnapshotFast, ExactOnIntegralLatenciesWithoutDelays) {
  // With every edge weight on the fixed-point grid the bucket queue is
  // not an approximation at all: distances must match bit-for-bit.
  auto fx = UnstructuredFixture::make(40, 7022);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  MeasureScratch exact;
  FastMeasureScratch fast;
  for (const SlotId src : {SlotId{0}, SlotId{13}, SlotId{29}}) {
    flood_snapshot(snap, src, nullptr, exact);
    flood_snapshot_fast(snap, src, nullptr, fast);
    for (SlotId v = 0; v < snap.slot_count(); ++v) {
      EXPECT_EQ(fast.distance(v), exact.distance(v))
          << "src " << src << " v " << v;
    }
  }
}

// ------------------------------------------------------- MeasureEngine ----

TEST(MeasureEngine, LookupLatenciesBitIdenticalAcrossThreadCounts) {
  auto fx = UnstructuredFixture::make(60, 7004);
  Rng rng(9);
  const auto queries = sample_query_pairs(fx.net.graph(), 400, rng);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  MeasureEngine serial(1);
  const auto want = serial.lookup_latencies(snap, queries);
  const double want_avg = serial.average_lookup_latency(snap, queries);
  for (const std::size_t t : {2, 4, 8}) {
    MeasureEngine engine(t);
    EXPECT_EQ(engine.thread_count(), t);
    EXPECT_EQ(engine.lookup_latencies(snap, queries), want);
    EXPECT_EQ(engine.average_lookup_latency(snap, queries), want_avg);
  }
}

TEST(MeasureEngine, MatchesHistoricalSerialHelpers) {
  auto fx = UnstructuredFixture::make(50, 7005);
  Rng rng(10);
  const auto queries = sample_query_pairs(fx.net.graph(), 250, rng);
  MeasureEngine engine(4);
  EXPECT_EQ(engine.lookup_latencies(OverlaySnapshot::capture(fx.net), queries),
            unstructured_lookup_latencies(fx.net, queries));
  EXPECT_EQ(engine.average_direct_latency(fx.net, queries),
            average_direct_latency(fx.net, queries));
}

TEST(MeasureEngine, StretchBitIdenticalOnChordRouter) {
  Rng rng(11);
  auto fx = UnstructuredFixture::make(40, 7006);
  const auto ring = ChordRing::build_random(40, ChordConfig{}, rng);
  const auto router = chord_router(fx.net, ring);
  const auto queries = sample_query_pairs(fx.net.graph(), 300, rng);
  MeasureEngine serial(1);
  MeasureEngine parallel(4);
  EXPECT_EQ(serial.route_latencies(queries, router),
            parallel.route_latencies(queries, router));
  EXPECT_EQ(serial.direct_latencies(fx.net, queries),
            parallel.direct_latencies(fx.net, queries));
  const StretchResult a = serial.stretch(fx.net, queries, router);
  const StretchResult b = parallel.stretch(fx.net, queries, router);
  EXPECT_EQ(a.logical_al, b.logical_al);
  EXPECT_EQ(a.physical_al, b.physical_al);
  EXPECT_EQ(a.stretch, b.stretch);
}

TEST(MeasureEngine, ScratchReusedAcrossChangingSnapshots) {
  auto fx = UnstructuredFixture::make(40, 7007);
  Rng rng(12);
  const auto queries = sample_query_pairs(fx.net.graph(), 200, rng);
  MeasureEngine reused(4);
  const OverlaySnapshot before = OverlaySnapshot::capture(fx.net);
  const auto r_before = reused.lookup_latencies(before, queries);

  // Rewire the overlay; the old snapshot must stay valid and the reused
  // engine must agree with a fresh one on both snapshots.
  LogicalGraph& g = fx.net.graph();
  const SlotId drop = g.neighbors(0).front();
  g.remove_edge(0, drop);
  SlotId add = 1;
  while (add == drop || g.has_edge(0, add)) ++add;
  g.add_edge(0, add);
  const OverlaySnapshot after = OverlaySnapshot::capture(fx.net);
  const auto r_after = reused.lookup_latencies(after, queries);

  MeasureEngine fresh(4);
  EXPECT_EQ(fresh.lookup_latencies(after, queries), r_after);
  EXPECT_EQ(fresh.lookup_latencies(before, queries), r_before);
}

TEST(MeasureEngine, FastModeBitIdenticalAcrossThreadCounts) {
  auto fx = UnstructuredFixture::make(60, 7023);
  Rng rng(14);
  const auto queries = sample_query_pairs(fx.net.graph(), 400, rng);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  MeasureEngine serial(1, MeasureMode::kFast);
  EXPECT_EQ(serial.mode(), MeasureMode::kFast);
  const auto want = serial.lookup_latencies(snap, queries);
  const double want_avg = serial.average_lookup_latency(snap, queries);
  for (const std::size_t t : {2, 4, 8}) {
    MeasureEngine engine(t, MeasureMode::kFast);
    EXPECT_EQ(engine.lookup_latencies(snap, queries), want);
    EXPECT_EQ(engine.average_lookup_latency(snap, queries), want_avg);
  }
  // The work counters track the kernel actually dispatched.
  EXPECT_GT(serial.stats().fast_floods, 0u);
  EXPECT_EQ(serial.stats().exact_floods, 0u);
  MeasureEngine exact(1);
  (void)exact.average_lookup_latency(snap, queries);
  EXPECT_GT(exact.stats().exact_floods, 0u);
  EXPECT_EQ(exact.stats().fast_floods, 0u);
}

TEST(MeasureEngine, FastAverageWithinBoundOfExact) {
  auto fx = UnstructuredFixture::make(60, 7024);
  Rng rng(15);
  const auto queries = sample_query_pairs(fx.net.graph(), 400, rng);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  std::vector<double> proc(snap.slot_count(), 0.0);
  for (std::size_t s = 0; s < proc.size(); ++s) {
    proc[s] = 0.25 * static_cast<double>(s % 5) + 0.3;
  }
  MeasureEngine exact(1, MeasureMode::kExact);
  MeasureEngine fast(1, MeasureMode::kFast);
  const double e = exact.average_lookup_latency(snap, queries, &proc);
  const double f = fast.average_lookup_latency(snap, queries, &proc);
  ASSERT_TRUE(std::isfinite(e));
  EXPECT_NEAR(f, e, 1e-6 * e);
}

// ------------------------------------------------------ SnapshotCache ----

TEST(SnapshotCache, ReusesUntilVersionAdvances) {
  auto fx = UnstructuredFixture::make(30, 7025);
  std::size_t calls = 0;
  SnapshotCache cache([&] {
    ++calls;
    return OverlaySnapshot::capture(fx.net);
  });
  const OverlaySnapshot& a = cache.at(1);
  const OverlaySnapshot& b = cache.at(1);
  EXPECT_EQ(&a, &b);  // reuse is by reference, not a copy
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(cache.captures(), 1u);
  EXPECT_EQ(cache.reuses(), 1u);

  (void)cache.at(2);  // version moved: recapture
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(cache.captures(), 2u);
  EXPECT_EQ(cache.reuses(), 1u);

  cache.invalidate();  // same version no longer trusted
  (void)cache.at(2);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(cache.captures(), 3u);
  EXPECT_EQ(cache.reuses(), 1u);
}

// ------------------------------------------------ measure_threads key ----

ExperimentSpec must_parse(const std::string& text) {
  const SpecResult parsed = ExperimentSpec::from_config(Config::parse(text));
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return parsed.ok() ? parsed.spec() : ExperimentSpec{};
}

TEST(MeasureThreadsKey, DefaultsToSerial) {
  EXPECT_EQ(must_parse("").measure_threads, 1u);
}

TEST(MeasureThreadsKey, ParsesAutoAndCounts) {
  EXPECT_EQ(must_parse("measure_threads = auto\n").measure_threads,
            ExperimentSpec::kMeasureThreadsAuto);
  EXPECT_EQ(must_parse("measure_threads = 0\n").measure_threads, 0u);
  EXPECT_EQ(must_parse("measure_threads = 6\n").measure_threads, 6u);
}

TEST(MeasureThreadsKey, RejectsNegativeAndGarbage) {
  for (const char* bad : {"measure_threads = -2\n", "measure_threads = up\n"}) {
    const SpecResult parsed =
        ExperimentSpec::from_config(Config::parse(bad));
    EXPECT_FALSE(parsed.ok()) << bad;
  }
}

// ----------------------------------------------- measure_mode key ----

TEST(MeasureModeKey, DefaultsToAutoWhichResolvesToExact) {
  const ExperimentSpec spec = must_parse("");
  EXPECT_EQ(spec.measure_mode, ExperimentSpec::MeasureMode::kAuto);
  EXPECT_EQ(spec.resolved_measure_mode(),
            ExperimentSpec::MeasureMode::kExact);
}

TEST(MeasureModeKey, ParsesAutoExactAndFast) {
  EXPECT_EQ(must_parse("measure_mode = auto\n").measure_mode,
            ExperimentSpec::MeasureMode::kAuto);
  EXPECT_EQ(must_parse("measure_mode = exact\n").measure_mode,
            ExperimentSpec::MeasureMode::kExact);
  // Default overlay is gnutella, so fast is admissible without more.
  const ExperimentSpec fast = must_parse("measure_mode = fast\n");
  EXPECT_EQ(fast.measure_mode, ExperimentSpec::MeasureMode::kFast);
  EXPECT_EQ(fast.resolved_measure_mode(),
            ExperimentSpec::MeasureMode::kFast);
}

TEST(MeasureModeKey, UnknownValueListsTheValidOnes) {
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse("measure_mode = quick\n"));
  ASSERT_FALSE(parsed.ok());
  const std::string report = parsed.error_report();
  for (const char* valid : {"auto", "exact", "fast"}) {
    EXPECT_NE(report.find(valid), std::string::npos) << report;
  }
}

TEST(MeasureModeKey, MisspelledKeyGetsDidYouMeanHint) {
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse("measure_mod = fast\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_report().find("measure_mode"), std::string::npos)
      << parsed.error_report();
}

TEST(MeasureModeKey, FastRejectsStructuredOverlays) {
  const SpecResult parsed = ExperimentSpec::from_config(
      Config::parse("overlay = chord\nmeasure_mode = fast\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_report().find("requires overlay = gnutella"),
            std::string::npos)
      << parsed.error_report();
}

TEST(MeasureModeKey, ComposesWithEveryMeasureThreadsSetting) {
  for (const char* threads : {"0", "1", "4", "auto"}) {
    const std::string text =
        std::string("measure_mode = fast\nmeasure_threads = ") + threads +
        "\n";
    EXPECT_TRUE(ExperimentSpec::from_config(Config::parse(text)).ok())
        << text;
  }
}

// ------------------------------------------------- golden result JSON ----

std::string golden_json(const std::string& base, const std::string& threads) {
  Config config = Config::parse(base);
  config.set("measure_threads", threads);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  const ExperimentSpec& spec = parsed.spec();
  ExperimentResult result = run_experiment(spec);
  // Phase wall-clock timers are the schema's only nondeterministic
  // fields; everything else must match byte-for-byte.
  result.trace.warmup_wall_ms = 0.0;
  result.trace.maintenance_wall_ms = 0.0;
  return experiment_result_json(spec, result).dump(2);
}

TEST(MeasureGolden, Fig5LikeResultJsonIdenticalAcrossThreadCounts) {
  // configs/fig5_like.conf downscaled to test time.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nnhops = 2\n";
  const std::string serial = golden_json(base, "1");
  EXPECT_EQ(serial, golden_json(base, "4"));
  EXPECT_EQ(serial, golden_json(base, "8"));
}

TEST(MeasureGolden, FaultedResultJsonIdenticalAcrossThreadCounts) {
  // Faults exercise the capture-time LinkFilter path: during the
  // partition window the sampled metric may even be +infinity (dumped
  // as null), and it must be the same null at every thread count.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-o\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nmodel_message_delays = true\n"
      "fault_loss = 0.05\nfault_jitter = 0.2\nfault_crash = 0.02\n"
      "fault_partition_domain = auto\n"
      "fault_partition_start = 300\nfault_partition_end = 600\n";
  const std::string serial = golden_json(base, "1");
  EXPECT_EQ(serial, golden_json(base, "4"));
  EXPECT_EQ(serial, golden_json(base, "8"));
}

// ------------------------------------ fast-mode experiment equivalence ----

const char kFastFig5Base[] =
    "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
    "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
    "queries = 2500\nnhops = 2\n";

const char kFastFaultedBase[] =
    "topology = ts-large\noverlay = gnutella\nprotocol = prop-o\n"
    "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
    "queries = 2500\nmodel_message_delays = true\n"
    "fault_loss = 0.05\nfault_jitter = 0.2\nfault_crash = 0.02\n"
    "fault_partition_domain = auto\n"
    "fault_partition_start = 300\nfault_partition_end = 600\n";

ExperimentResult run_with_mode(const std::string& base, const char* mode,
                               const char* threads = "1") {
  Config config = Config::parse(base);
  config.set("measure_mode", mode);
  config.set("measure_threads", threads);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return run_experiment(parsed.spec());
}

/// Asserts `fast` tracks `exact` within the documented 1e-6 relative
/// bound at every sample (infinities must agree exactly).
void expect_series_within_bound(const TimeSeries& exact,
                                const TimeSeries& fast) {
  ASSERT_EQ(exact.points().size(), fast.points().size());
  for (std::size_t i = 0; i < exact.points().size(); ++i) {
    const double e = exact.points()[i].value;
    const double f = fast.points()[i].value;
    EXPECT_EQ(exact.points()[i].time, fast.points()[i].time);
    if (std::isinf(e) || std::isinf(f)) {
      EXPECT_EQ(e, f) << "sample " << i;
      continue;
    }
    EXPECT_NEAR(f, e, 1e-6 * std::max(std::fabs(e), 1.0)) << "sample " << i;
  }
}

TEST(MeasureFastGolden, Fig5LikeSeriesWithinBoundOfExact) {
  const ExperimentResult exact = run_with_mode(kFastFig5Base, "exact");
  const ExperimentResult fast = run_with_mode(kFastFig5Base, "fast");
  expect_series_within_bound(exact.series, fast.series);
  EXPECT_GT(exact.measure_exact_floods, 0u);
  EXPECT_EQ(exact.measure_fast_floods, 0u);
  EXPECT_GT(fast.measure_fast_floods, 0u);
  EXPECT_EQ(fast.measure_exact_floods, 0u);
  // Same tick schedule on both sides => same flood demand.
  EXPECT_EQ(exact.measure_exact_floods, fast.measure_fast_floods);
}

TEST(MeasureFastGolden, FaultedSeriesWithinBoundOfExact) {
  const ExperimentResult exact = run_with_mode(kFastFaultedBase, "exact");
  const ExperimentResult fast = run_with_mode(kFastFaultedBase, "fast");
  expect_series_within_bound(exact.series, fast.series);
}

TEST(MeasureFastGolden, ResultJsonIdenticalAcrossThreadCounts) {
  // The fast kernel's distances are exact over the quantized weights,
  // so fast mode inherits the full thread-count byte-identity contract
  // on both the fig5-like and the faulted configs.
  for (const char* base : {kFastFig5Base, kFastFaultedBase}) {
    const std::string with_mode =
        std::string(base) + "measure_mode = fast\n";
    const std::string serial = golden_json(with_mode, "1");
    EXPECT_EQ(serial, golden_json(with_mode, "2"));
    EXPECT_EQ(serial, golden_json(with_mode, "4"));
    EXPECT_EQ(serial, golden_json(with_mode, "8"));
  }
}

// -------------------------------------- counters v5 / measure stanza ----

TEST(MeasureCounters, V5ExposesKernelAndSnapshotCounters) {
  EXPECT_EQ(ExperimentResult::kCountersVersion, 7);
  const ExperimentResult result = run_with_mode(kFastFig5Base, "exact");
  // Every sampler tick asked the cache for a snapshot: the capture /
  // reuse split depends on the trace build mode, but the total is the
  // tick count either way.
  EXPECT_EQ(result.measure_snapshot_captures + result.measure_snapshot_reuses,
            result.series.points().size());
  EXPECT_GT(result.measure_snapshot_captures, 0u);

  Config config = Config::parse(kFastFig5Base);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  ASSERT_TRUE(parsed.ok());
  const Json json = experiment_result_json(parsed.spec(), result);
  const Json* counters = json.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"measure_exact_floods", "measure_fast_floods",
        "measure_snapshot_captures", "measure_snapshot_reuses"}) {
    EXPECT_NE(counters->find(name), nullptr) << name;
  }
  const Json* measure = json.find("measure");
  ASSERT_NE(measure, nullptr);
  ASSERT_NE(measure->find("mode"), nullptr);
  EXPECT_EQ(measure->find("mode")->as_string(), "exact");
  const Json* spec_json = json.find("spec");
  ASSERT_NE(spec_json, nullptr);
  ASSERT_NE(spec_json->find("measure_mode"), nullptr);
  EXPECT_EQ(spec_json->find("measure_mode")->as_string(), "exact");
}

}  // namespace
}  // namespace propsim
