// Measurement engine: snapshot fidelity, the bucket-queue flood kernel
// against a reference binary-heap Dijkstra, parallel determinism
// (results bit-identical to the serial path for any thread count),
// scratch reuse, snapshot caching, the measure_threads / measure_mode
// config keys, and golden whole-experiment JSON across thread counts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/experiment.h"
#include "app/result_json.h"
#include "chord/chord_ring.h"
#include "common/config.h"
#include "common/indexed_priority_queue.h"
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

// ------------------------------------ bucket kernel vs reference heap ----

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The binary-heap Dijkstra flood_snapshot ran before the bucket queue
/// (and OverlayNetwork::flood_latencies still runs): the reference the
/// bucket kernel must match bit for bit.
std::vector<double> reference_flood(const OverlaySnapshot& snap,
                                    SlotId source,
                                    const std::vector<double>* proc) {
  std::vector<double> dist(snap.slot_count(), kInf);
  IndexedPriorityQueue<double> queue(snap.slot_count());
  dist[source] = 0.0;
  queue.push_or_update(source, 0.0);
  while (!queue.empty()) {
    const auto u = static_cast<SlotId>(queue.pop());
    const auto targets = snap.targets(u);
    const auto lats = snap.latencies(u);
    for (std::size_t e = 0; e < targets.size(); ++e) {
      const SlotId v = targets[e];
      double cost = lats[e];
      if (proc != nullptr) cost += (*proc)[v];
      const double candidate = dist[u] + cost;
      if (candidate < dist[v]) {
        dist[v] = candidate;
        queue.push_or_update(v, candidate);
      }
    }
  }
  return dist;
}

/// Floods from every active slot with `scratch` and compares each
/// distance to the reference with exact double equality.
void expect_matches_reference(const OverlaySnapshot& snap,
                              const std::vector<double>* proc,
                              MeasureScratch& scratch) {
  for (SlotId src = 0; src < snap.slot_count(); ++src) {
    if (!snap.is_active(src)) continue;
    flood_snapshot(snap, src, proc, scratch);
    const std::vector<double> want = reference_flood(snap, src, proc);
    for (SlotId v = 0; v < want.size(); ++v) {
      EXPECT_EQ(scratch.distance(v), want[v]) << "src " << src << " v " << v;
    }
  }
}

/// True when `scratch` holds the between-flood invariants every flood
/// starts from: nothing queued and every bucket-ring head empty.
bool scratch_idle(const MeasureScratch& scratch) {
  return std::all_of(scratch.queued.begin(), scratch.queued.end(),
                     [](std::uint8_t q) { return q == 0; }) &&
         std::all_of(scratch.heads.begin(), scratch.heads.end(),
                     [](std::uint32_t h) {
                       return h == MeasureScratch::kNoEntry;
                     });
}

/// Floods from every active slot to every target, each targeted flood
/// followed by a full one on the same scratch. Every targeted distance
/// must equal the reference bit for bit, every flood must leave the
/// scratch idle, and the full flood after an early exit must still be
/// exact. Returns how many targeted floods stopped early (filed fewer
/// entries than the full flood), so callers can check the exit fired.
std::size_t expect_targeted_match_reference(const OverlaySnapshot& snap,
                                            const std::vector<double>* proc,
                                            MeasureScratch& scratch) {
  std::size_t early = 0;
  for (SlotId src = 0; src < snap.slot_count(); ++src) {
    if (!snap.is_active(src)) continue;
    const std::vector<double> want = reference_flood(snap, src, proc);
    for (SlotId target = 0; target < want.size(); ++target) {
      flood_snapshot(snap, src, proc, scratch, target);
      EXPECT_EQ(scratch.distance(target), want[target])
          << "src " << src << " target " << target;
      EXPECT_TRUE(scratch_idle(scratch)) << "src " << src << " target "
                                         << target;
      const std::size_t filed = scratch.entries.size();
      flood_snapshot(snap, src, proc, scratch);
      if (filed < scratch.entries.size()) ++early;
      for (SlotId v = 0; v < want.size(); ++v) {
        EXPECT_EQ(scratch.distance(v), want[v])
            << "full flood after src " << src << " target " << target
            << ", v " << v;
      }
    }
  }
  return early;
}

/// Off-grid per-slot processing delays (0.1 ms steps are not binary
/// fractions), so path sums round.
std::vector<double> off_grid_delays(std::size_t n) {
  std::vector<double> proc(n);
  for (std::size_t s = 0; s < n; ++s) {
    proc[s] = 0.1 * static_cast<double>(s % 7) + 0.03;
  }
  return proc;
}

/// A random directed snapshot over `n` slots, every fifth inactive (no
/// edges in or out). `weight(rng)` draws each edge latency.
template <typename WeightFn>
OverlaySnapshot random_snapshot(std::size_t n, Rng& rng, WeightFn weight) {
  std::vector<std::uint8_t> active(n);
  for (std::size_t s = 0; s < n; ++s) active[s] = s % 5 == 4 ? 0 : 1;
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<SlotId> targets;
  std::vector<double> lats;
  for (std::size_t s = 0; s < n; ++s) {
    offsets[s] = targets.size();
    if (active[s] == 0) continue;
    for (int k = 0; k < 4; ++k) {
      const auto v = static_cast<SlotId>(rng.uniform(n));
      if (v == s || active[v] == 0) continue;
      targets.push_back(v);
      lats.push_back(weight(rng));
    }
  }
  offsets[n] = targets.size();
  return OverlaySnapshot::from_csr(std::move(active), std::move(offsets),
                                   std::move(targets), std::move(lats));
}

TEST(FloodSnapshot, BucketKernelMatchesReferenceHeapDijkstra) {
  Rng rng(7030);
  MeasureScratch scratch;  // one scratch across every snapshot below

  // Captured overlays, with and without off-grid delays: every edge is
  // at least W, so every slot settles on its first pop.
  auto big = UnstructuredFixture::make(60, 7031);
  const OverlaySnapshot captured = OverlaySnapshot::capture(big.net);
  expect_matches_reference(captured, nullptr, scratch);
  const auto proc60 = off_grid_delays(captured.slot_count());
  expect_matches_reference(captured, &proc60, scratch);

  // Link-filtered capture with departed peers, in a smaller slot count.
  auto small = UnstructuredFixture::make(30, 7032);
  small.net.graph().deactivate_slot(3);
  small.net.graph().deactivate_slot(17);
  const OverlayNetwork::LinkFilter drop = [](SlotId a, SlotId b) {
    return (a * 7 + b) % 4 != 0;
  };
  const OverlaySnapshot filtered = OverlaySnapshot::capture(small.net, &drop);
  ASSERT_FALSE(filtered.is_active(3));
  expect_matches_reference(filtered, nullptr, scratch);
  const auto proc30 = off_grid_delays(filtered.slot_count());
  expect_matches_reference(filtered, &proc30, scratch);

  // Edges under 2^-4 ms, zero-cost edges and one +inf edge: W is
  // clamped above the minimum cost, so buckets drain to a fixpoint.
  bool inf_drawn = false;
  const OverlaySnapshot tiny = random_snapshot(80, rng, [&](Rng& r) {
    const double roll = r.uniform_double();
    if (!inf_drawn && roll < 0.02) {
      inf_drawn = true;
      return kInf;
    }
    if (roll < 0.15) return 0.0;
    if (roll < 0.6) return r.uniform_double(0.001, 0.06);
    return r.uniform_double(0.0, 3.0);
  });
  ASSERT_TRUE(inf_drawn);
  EXPECT_EQ(tiny.min_edge_ms(), 0.0);
  expect_matches_reference(tiny, nullptr, scratch);
  const auto proc80 = off_grid_delays(tiny.slot_count());
  expect_matches_reference(tiny, &proc80, scratch);

  // Spans far past the bucket ring's ceiling and past the saturating
  // bucket index: huge finite edges beside sub-millisecond ones.
  const OverlaySnapshot wide = random_snapshot(50, rng, [](Rng& r) {
    const double roll = r.uniform_double();
    if (roll < 0.1) return 1e300;
    if (roll < 0.3) return r.uniform_double(1e5, 1e7);
    return r.uniform_double(0.07, 2.0);
  });
  expect_matches_reference(wide, nullptr, scratch);

  // Back to the first snapshot after smaller ones: the reused scratch
  // must not leak state across slot counts.
  expect_matches_reference(captured, &proc60, scratch);

  // Point-to-point floods to every target, interleaved with full floods
  // on the same scratch: early exits must return the full flood's value
  // and restore the scratch. Each snapshot must exercise the exit.
  EXPECT_GT(expect_targeted_match_reference(captured, nullptr, scratch), 0u);
  EXPECT_GT(expect_targeted_match_reference(captured, &proc60, scratch), 0u);
  EXPECT_GT(expect_targeted_match_reference(filtered, &proc30, scratch), 0u);
  EXPECT_GT(expect_targeted_match_reference(tiny, nullptr, scratch), 0u);
  EXPECT_GT(expect_targeted_match_reference(tiny, &proc80, scratch), 0u);
  EXPECT_GT(expect_targeted_match_reference(wide, nullptr, scratch), 0u);

  // The edge cases by name: 0 -> 1 costs 1 ms, 1 -> 2 only by a +inf
  // edge, 3 is inactive and 4 is active but unreachable.
  const OverlaySnapshot cases = OverlaySnapshot::from_csr(
      {1, 1, 1, 0, 1}, {0, 1, 2, 2, 2, 2}, {1, 2}, {1.0, kInf});
  const std::pair<SlotId, double> expected[] = {
      {0, 0.0}, {1, 1.0}, {2, kInf}, {3, kInf}, {4, kInf}};
  for (const auto& [target, ms] : expected) {
    flood_snapshot(cases, 0, nullptr, scratch, target);
    EXPECT_EQ(scratch.distance(target), ms) << "target " << target;
    EXPECT_TRUE(scratch_idle(scratch)) << "target " << target;
  }
  expect_targeted_match_reference(cases, nullptr, scratch);
}

TEST(OverlaySnapshot, RecordsMinimumEdgeLatency) {
  auto fx = UnstructuredFixture::make(40, 7033);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  double min_ms = kInf;
  for (SlotId s = 0; s < snap.slot_count(); ++s) {
    for (const double ms : snap.latencies(s)) min_ms = std::min(min_ms, ms);
  }
  EXPECT_EQ(snap.min_edge_ms(), min_ms);
  EXPECT_EQ(OverlaySnapshot::from_csr({1}, {0, 0}, {}, {}).min_edge_ms(),
            kInf);
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

TEST(MeasureModeKey, ParsesAutoAndExact) {
  EXPECT_EQ(must_parse("measure_mode = auto\n").measure_mode,
            ExperimentSpec::MeasureMode::kAuto);
  EXPECT_EQ(must_parse("measure_mode = exact\n").measure_mode,
            ExperimentSpec::MeasureMode::kExact);
}

TEST(MeasureModeKey, RemovedFastIsRejectedNamingExact) {
  // The fixed-point kernel is gone; fast is an error that points to its
  // replacement, not a silent alias, on any overlay.
  for (const char* text : {"measure_mode = fast\n",
                           "overlay = chord\nmeasure_mode = fast\n"}) {
    const SpecResult parsed = ExperimentSpec::from_config(Config::parse(text));
    ASSERT_FALSE(parsed.ok()) << text;
    const std::string report = parsed.error_report();
    EXPECT_NE(report.find("measure_mode"), std::string::npos) << report;
    EXPECT_NE(report.find("removed"), std::string::npos) << report;
    EXPECT_NE(report.find("exact"), std::string::npos) << report;
  }
}

TEST(MeasureModeKey, UnknownValueListsTheValidOnes) {
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse("measure_mode = quick\n"));
  ASSERT_FALSE(parsed.ok());
  const std::string report = parsed.error_report();
  for (const char* valid : {"auto", "exact"}) {
    EXPECT_NE(report.find(valid), std::string::npos) << report;
  }
}

TEST(MeasureModeKey, MisspelledKeyGetsDidYouMeanHint) {
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse("measure_mod = exact\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_report().find("measure_mode"), std::string::npos)
      << parsed.error_report();
}

TEST(MeasureModeKey, ComposesWithEveryMeasureThreadsSetting) {
  for (const char* threads : {"0", "1", "4", "auto"}) {
    const std::string text =
        std::string("measure_mode = exact\nmeasure_threads = ") + threads +
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

// configs/fig5_like.conf downscaled to test time.
const char kFig5Base[] =
    "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
    "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
    "queries = 2500\nnhops = 2\n";

TEST(MeasureGolden, Fig5LikeResultJsonIdenticalAcrossThreadCounts) {
  const std::string serial = golden_json(kFig5Base, "1");
  EXPECT_EQ(serial, golden_json(kFig5Base, "4"));
  EXPECT_EQ(serial, golden_json(kFig5Base, "8"));
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

// -------------------------------------- counters v5 / measure stanza ----

TEST(MeasureCounters, V5ExposesKernelAndSnapshotCounters) {
  EXPECT_EQ(ExperimentResult::kCountersVersion, 7);
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse(kFig5Base));
  ASSERT_TRUE(parsed.ok());
  const ExperimentResult result = run_experiment(parsed.spec());
  // Every sampler tick asked the cache for a snapshot: the capture /
  // reuse split depends on the trace build mode, but the total is the
  // tick count either way.
  EXPECT_EQ(result.measure_snapshot_captures + result.measure_snapshot_reuses,
            result.series.points().size());
  EXPECT_GT(result.measure_snapshot_captures, 0u);
  EXPECT_GT(result.measure_exact_floods, 0u);
  EXPECT_EQ(result.measure_fast_floods, 0u);  // reserved, always 0

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
