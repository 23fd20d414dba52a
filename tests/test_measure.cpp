// Measurement engine: snapshot fidelity, the bucket-queue flood kernel
// against a reference binary-heap Dijkstra, parallel determinism
// (results bit-identical to the serial path for any thread count, also
// when per-source costs are deliberately uneven), the worker group's
// failure path, scratch reuse, snapshot caching, the measure_threads /
// measure_mode config keys and their core split, and golden
// whole-experiment JSON across thread counts.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/experiment.h"
#include "app/result_json.h"
#include "chord/chord_ring.h"
#include "common/config.h"
#include "common/indexed_priority_queue.h"
#include "fixtures.h"
#include "gnutella/gnutella.h"
#include "measure/measure_engine.h"
#include "measure/snapshot_cache.h"
#include "metrics/metrics.h"
#include "topology/random_graphs.h"
#include "workload/lookups.h"

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
  OverlayNetwork::FloodScratch heap;
  for (const SlotId src : {SlotId{0}, SlotId{5}, SlotId{17}}) {
    flood_snapshot(snap, src, nullptr, scratch);
    const auto& live = fx.net.flood_latencies_into(heap, src, nullptr, &drop);
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
  OverlayNetwork::FloodScratch heap;
  for (SlotId src = 0; src < 50; ++src) {
    flood_snapshot(snap, src, &proc, scratch);
    const auto& live = fx.net.flood_latencies_into(heap, src, &proc);
    for (SlotId v = 0; v < live.size(); ++v) {
      EXPECT_EQ(scratch.distance(v), live[v]) << "src " << src << " v " << v;
    }
  }
}

// ------------------------------------ bucket kernel vs reference heap ----

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The binary-heap Dijkstra flood_snapshot ran before the bucket queue
/// (the one OverlayNetwork::flood_latencies_into runs over the live
/// overlay), here over a snapshot: the reference the bucket kernel must
/// match bit for bit.
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
/// starts from: nothing pending and every bucket-ring head empty.
bool scratch_idle(const MeasureScratch& scratch) {
  return std::all_of(scratch.pending.begin(), scratch.pending.end(),
                     [](std::uint64_t b) {
                       return b == MeasureScratch::kIdle;
                     }) &&
         std::all_of(scratch.heads.begin(), scratch.heads.end(),
                     [](std::uint32_t h) {
                       return h == MeasureScratch::kNoEntry;
                     });
}

/// Floods from every active slot to target sets, each flood followed by
/// a full one on the same scratch: first every slot alone, then six
/// random sets drawn with replacement (so they repeat and name inactive
/// slots), every third one holding the source too. Every target must
/// read the reference's bits, every flood must leave the scratch idle,
/// and the full flood after an early exit must still be exact. Returns
/// how many targeted floods stopped early (filed fewer entries than the
/// full flood), so callers can check the exit fired.
std::size_t expect_targeted_match_reference(const OverlaySnapshot& snap,
                                            const std::vector<double>* proc,
                                            MeasureScratch& scratch,
                                            Rng& rng) {
  constexpr std::size_t kRandomSets = 6;
  std::size_t early = 0;
  std::vector<SlotId> targets;
  for (SlotId src = 0; src < snap.slot_count(); ++src) {
    if (!snap.is_active(src)) continue;
    const std::vector<double> want = reference_flood(snap, src, proc);
    const std::size_t n = want.size();
    for (std::size_t set = 0; set < n + kRandomSets; ++set) {
      targets.clear();
      if (set < n) {
        targets.push_back(static_cast<SlotId>(set));
      } else {
        const std::uint64_t size = 1 + rng.uniform(8);
        for (std::uint64_t k = 0; k < size; ++k) {
          targets.push_back(static_cast<SlotId>(rng.uniform(n)));
        }
        if ((set - n) % 3 == 0) {
          targets.insert(targets.begin() + rng.uniform(targets.size()), src);
        }
      }
      flood_snapshot(snap, src, proc, scratch, targets);
      for (const SlotId t : targets) {
        EXPECT_EQ(scratch.distance(t), want[t])
            << "src " << src << " set " << set << " target " << t;
      }
      EXPECT_TRUE(scratch_idle(scratch)) << "src " << src << " set " << set;
      const std::size_t filed = scratch.entries.size();
      flood_snapshot(snap, src, proc, scratch);
      if (filed < scratch.entries.size()) ++early;
      for (SlotId v = 0; v < n; ++v) {
        EXPECT_EQ(scratch.distance(v), want[v])
            << "full flood after src " << src << " set " << set << ", v "
            << v;
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
  small.net.leave(3);
  small.net.leave(17);
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
  const auto proc50 = off_grid_delays(wide.slot_count());
  expect_matches_reference(wide, &proc50, scratch);

  // Back to the first snapshot after smaller ones: the reused scratch
  // must not leak state across slot counts.
  expect_matches_reference(captured, &proc60, scratch);

  // Floods to every single target and to random target sets,
  // interleaved with full floods on the same scratch: early exits must
  // return the full flood's values and restore the scratch. Each
  // snapshot, with and without delays, must exercise the exit.
  const std::pair<const OverlaySnapshot*, const std::vector<double>*>
      runs[] = {{&captured, nullptr}, {&captured, &proc60},
                {&filtered, nullptr}, {&filtered, &proc30},
                {&tiny, nullptr},     {&tiny, &proc80},
                {&wide, nullptr},     {&wide, &proc50}};
  for (const auto& [snap, proc] : runs) {
    EXPECT_GT(expect_targeted_match_reference(*snap, proc, scratch, rng), 0u);
  }

  // The edge cases by name: 0 -> 1 costs 1 ms, 1 -> 2 only by a +inf
  // edge, 3 is inactive and 4 is active but unreachable.
  const OverlaySnapshot cases = OverlaySnapshot::from_csr(
      {1, 1, 1, 0, 1}, {0, 1, 2, 2, 2, 2}, {1, 2}, {1.0, kInf});
  // Alone and in sets; the sets that hold 2, 3 or 4 name targets the
  // flood never reaches, so it must drain before it stops.
  const std::vector<double> delays = {0.5, 0.25, 0.0, 0.0, 0.0};
  const std::vector<std::vector<SlotId>> sets = {
      {0}, {1}, {2}, {3}, {4}, {1, 4}, {4, 1}, {0, 2, 0}, {3, 1, 3},
      {0, 1, 2, 3, 4}, {1, 1}};
  for (const std::vector<double>* proc : {
           static_cast<const std::vector<double>*>(nullptr), &delays}) {
    const double one = proc == nullptr ? 1.0 : 1.25;
    for (const auto& set : sets) {
      flood_snapshot(cases, 0, proc, scratch, set);
      for (const SlotId t : set) {
        EXPECT_EQ(scratch.distance(t), t == 0 ? 0.0 : t == 1 ? one : kInf)
            << "target " << t << (proc == nullptr ? "" : ", delayed");
      }
      EXPECT_TRUE(scratch_idle(scratch));
    }
  }
  expect_targeted_match_reference(cases, nullptr, scratch, rng);
  expect_targeted_match_reference(cases, &delays, scratch, rng);
}

TEST(FloodSnapshotDeathTest, OutOfRangeSlotsAbort) {
  const OverlaySnapshot snap = OverlaySnapshot::from_csr(
      {1, 1, 1}, {0, 1, 2, 2}, {1, 2}, {1.0, 2.0});
  MeasureScratch scratch;
  const SlotId past = 3;
  EXPECT_DEATH(flood_snapshot(snap, past, nullptr, scratch), "source < n");
  EXPECT_DEATH(flood_snapshot(snap, 0, nullptr, scratch, {&past, 1}),
               "t < n");
  const std::vector<SlotId> set = {2, past, 0};
  EXPECT_DEATH(flood_snapshot(snap, 0, nullptr, scratch, set), "t < n");
  const QueryPair bad_dst[] = {{0, 1}, {1, past}};
  EXPECT_DEATH(MeasureEngine(1).lookup_latencies(snap, bad_dst), "t < n");
  const QueryPair bad_src[] = {{past, 0}};
  EXPECT_DEATH(MeasureEngine(1).lookup_latencies(snap, bad_src), "source < n");
}

// ------------------------------------- live lookups vs the heap flood ----

/// Floods `net` from every active slot to every slot alone, as live
/// lookups do, and compares each answer with the probing heap flood bit
/// for bit. Each flood must leave the scratch idle. `live_filed` totals
/// the entries the live floods filed, `dial_filed` those of the same
/// floods given their target twice, which makes them multi-target
/// floods, never guided. `unreachable`, `adjacent` and `self` count the
/// targets the flood cannot reach, those one hop from their source and
/// the source itself.
struct LiveLookupCounts {
  std::size_t live_filed = 0;
  std::size_t dial_filed = 0;
  std::size_t unreachable = 0;
  std::size_t adjacent = 0;
  std::size_t self = 0;
};

LiveLookupCounts expect_live_lookups_match_heap(
    const OverlayNetwork& net, const OverlayNetwork::LinkFilter* filter,
    const std::vector<double>* proc, MeasureScratch& scratch) {
  LiveLookupCounts counts;
  MeasureScratch dial;
  OverlayNetwork::FloodScratch heap;
  const LogicalGraph& g = net.graph();
  for (SlotId src = 0; src < g.slot_count(); ++src) {
    if (!g.is_active(src)) continue;
    const std::vector<double> want =
        net.flood_latencies_into(heap, src, proc, filter);
    for (SlotId dst = 0; dst < g.slot_count(); ++dst) {
      flood_overlay(net, filter, src, proc, scratch, {&dst, 1});
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scratch.distance(dst)),
                std::bit_cast<std::uint64_t>(want[dst]))
          << "src " << src << " dst " << dst;
      EXPECT_TRUE(scratch_idle(scratch)) << "src " << src << " dst " << dst;
      counts.live_filed += scratch.entries.size();
      const SlotId twice[] = {dst, dst};
      flood_overlay(net, filter, src, proc, dial, twice);
      EXPECT_EQ(dial.distance(dst), scratch.distance(dst));
      counts.dial_filed += dial.entries.size();
      if (want[dst] == kInf) ++counts.unreachable;
      if (g.has_edge(src, dst)) ++counts.adjacent;
      if (src == dst) ++counts.self;
    }
  }
  return counts;
}

TEST(FloodOverlay, GuidedLookupsMatchTheHeapFlood) {
  // The hierarchical oracle: single-target live floods are A* searches.
  auto fx = UnstructuredFixture::make(60, 7041, /*attach_links=*/2,
                                      testing::OracleEngine::kHierarchical);
  ASSERT_TRUE(fx.oracle.hierarchical());
  fx.net.leave(9);  // an inactive slot every source targets too
  // A partition window around the stub domain of slot 0's host: links
  // crossing its gateway are cut, so its slots are unreachable from
  // outside it and the rest from inside.
  const std::uint32_t cut_domain =
      fx.topo.domain[fx.net.placement().host_of(0)];
  const OverlayNetwork::LinkFilter cut = [&fx, cut_domain](SlotId a, SlotId b) {
    const Placement& p = fx.net.placement();
    return (fx.topo.domain[p.host_of(a)] == cut_domain) ==
           (fx.topo.domain[p.host_of(b)] == cut_domain);
  };
  const auto proc = off_grid_delays(fx.net.graph().slot_count());
  MeasureScratch scratch;  // one scratch across every flood below
  for (const OverlayNetwork::LinkFilter* filter :
       {static_cast<const OverlayNetwork::LinkFilter*>(nullptr), &cut}) {
    for (const std::vector<double>* p :
         {static_cast<const std::vector<double>*>(nullptr), &proc}) {
      const LiveLookupCounts counts =
          expect_live_lookups_match_heap(fx.net, filter, p, scratch);
      // Every kind of target came up, and the estimate pruned the search.
      EXPECT_GT(counts.unreachable, 0u);
      EXPECT_GT(counts.adjacent, 0u);
      EXPECT_EQ(counts.self, fx.net.size());
      EXPECT_LT(counts.live_filed, counts.dial_filed);
      if (filter != nullptr) {
        // More than the inactive slot accounts for: the cut bites.
        const std::size_t inactive =
            fx.net.graph().slot_count() - fx.net.size();
        EXPECT_GT(counts.unreachable, fx.net.size() * inactive);
      }
    }
  }
}

TEST(FloodOverlay, RowOracleLookupsRunTheZeroEstimate) {
  // A Dijkstra-row oracle answers point queries from cached rows, so
  // live floods over it keep the plain Dial key: a lone target files
  // exactly the entries the same target given twice files.
  Rng rng(7042);
  const Graph waxman = make_waxman_graph(120, 0.25, 0.4, 200.0, 2.0, rng);
  const LatencyOracle oracle(waxman);
  ASSERT_FALSE(oracle.hierarchical());
  std::vector<NodeId> hosts;
  for (const std::size_t i : rng.sample_indices(waxman.node_count(), 50)) {
    hosts.push_back(static_cast<NodeId>(i));
  }
  const OverlayNetwork net =
      build_gnutella_overlay(GnutellaConfig{}, hosts, oracle, rng);
  const auto proc = off_grid_delays(net.graph().slot_count());
  MeasureScratch scratch;
  for (const std::vector<double>* p :
       {static_cast<const std::vector<double>*>(nullptr), &proc}) {
    const LiveLookupCounts counts =
        expect_live_lookups_match_heap(net, nullptr, p, scratch);
    EXPECT_EQ(counts.live_filed, counts.dial_filed);
    EXPECT_GT(counts.adjacent, 0u);
  }
}

TEST(FloodOverlay, MarginCoversRoundingFarFromTheSource) {
  // A world built so that an A* key deflated too little stops the flood
  // one bucket early. One transit node (host 0) and one stub domain,
  // hosts 1..13 with gateway S = 1:
  //   S -D- V=3 -c- 4 -c- ... -c- 13=T   (ten sub-ms links c ~ 0.02 ms)
  //   S -D'- Y=2 -0.5- T
  // Slots 0..12 sit on hosts 1..13: s-v, s-y, y-t and the chain from v
  // to t. Far from the source (D ~ 2^20 ms, one ulp u = 2^-32 ms), each
  // hop of the chain adds c = (K + 0.42) u and rounds 0.42 u down, so
  // the route through v reaches t at B - 3u, B = 2^20 + 1 being a
  // bucket boundary. The oracle sums the chain among small numbers, so
  // v's undeflated key D + 10c rounds to B + u, a bucket later, while
  // the route through y reaches t at B - u. A flood whose keys exceed
  // the route they bound stops after the bucket below B with B - u.
  // A margin on h alone, h * (1 - 1e-9), removes only 2e-10 ms < u.
  constexpr double u = 0x1p-32;
  const double boundary = 0x1p20 + 1.0;
  const double k = std::round(0.02 / u);
  const double c = std::ldexp(k, -32) + std::ldexp(28185723.0, -58);
  ASSERT_EQ((c - std::ldexp(k, -32)) / u, 28185723.0 / 0x1p26);  // exact
  const double d = boundary - 10.0 * k * u - 3.0 * u;
  const double d_via_y = boundary - u - 0.5;

  TransitStubTopology topo;
  topo.graph = Graph(14);
  topo.graph.add_edge(0, 1, 1.0);  // the gateway's attachment link
  topo.graph.add_edge(1, 3, d);
  topo.graph.add_edge(1, 2, d_via_y);
  topo.graph.add_edge(2, 13, 0.5);
  for (NodeId h = 3; h < 13; ++h) topo.graph.add_edge(h, h + 1, c);
  topo.kind.assign(14, NodeKind::kStub);
  topo.kind[0] = NodeKind::kTransit;
  topo.domain.assign(14, 0);
  topo.transit_nodes = {0};
  for (NodeId h = 1; h < 14; ++h) topo.stub_nodes.push_back(h);
  topo.stub_domains = {StubDomain{1, 13, 1, 0, 1.0}};
  topo.stub_domain_count = 1;
  const LatencyOracle oracle(topo);
  ASSERT_TRUE(oracle.hierarchical());

  LogicalGraph g(13);
  g.add_edge(0, 2);  // s - v
  g.add_edge(0, 1);  // s - y
  g.add_edge(1, 12);  // y - t
  for (SlotId s = 2; s < 12; ++s) g.add_edge(s, s + 1);
  std::vector<NodeId> hosts;
  for (NodeId h = 1; h < 14; ++h) hosts.push_back(h);
  const OverlayNetwork net = bind_overlay(std::move(g), hosts, oracle, nullptr);

  // The trap is set: the chain wins by two ulps, below the boundary,
  // and v's key without a margin lies past it.
  const SlotId s = 0;
  const SlotId t = 12;
  OverlayNetwork::FloodScratch heap;
  const double chain = net.flood_latencies_into(heap, s)[t];
  EXPECT_EQ(chain, boundary - 3.0 * u);
  EXPECT_EQ(d_via_y + 0.5, boundary - u);
  EXPECT_EQ(d + oracle.latency(3, 13), boundary + u);
  EXPECT_EQ(d + oracle.latency(3, 13) * (1.0 - 1e-9), boundary);

  MeasureScratch scratch;
  flood_overlay(net, nullptr, s, nullptr, scratch, {&t, 1});
  EXPECT_EQ(scratch.distance(t), chain);
  expect_live_lookups_match_heap(net, nullptr, nullptr, scratch);
  const auto proc = off_grid_delays(net.graph().slot_count());
  expect_live_lookups_match_heap(net, nullptr, &proc, scratch);
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
  const auto queries = uniform_queries(fx.net.graph(), 400, rng);
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

TEST(MeasureEngine, SweepMatchesPerQueryFullFloodsOnDelayedSnapshot) {
  auto fx = UnstructuredFixture::make(60, 7007);
  Rng rng(12);
  auto queries = uniform_queries(fx.net.graph(), 500, rng);
  // Repeated pairs and self-queries share their source's run.
  queries.push_back(queries.front());
  queries.push_back({queries[1].src, queries[1].src});
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  const auto proc = off_grid_delays(snap.slot_count());
  std::set<SlotId> sources;
  for (const auto& q : queries) sources.insert(q.src);
  MeasureScratch scratch;
  for (const std::size_t t : {1, 3}) {
    MeasureEngine engine(t);
    const auto got = engine.lookup_latencies(snap, queries, &proc);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      flood_snapshot(snap, queries[i].src, &proc, scratch);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(
                    scratch.distance(queries[i].dst)))
          << "threads " << t << " query " << i;
    }
    // One flood per distinct source, however early each stopped.
    EXPECT_EQ(engine.stats().exact_floods, sources.size());
  }
}

TEST(MeasureEngine, StretchBitIdenticalOnChordRouter) {
  Rng rng(11);
  auto fx = UnstructuredFixture::make(40, 7006);
  const auto ring = ChordRing::build_random(40, ChordConfig{}, rng);
  const auto router = chord_router(fx.net, ring);
  const auto queries = uniform_queries(fx.net.graph(), 300, rng);
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
  const auto queries = uniform_queries(fx.net.graph(), 200, rng);
  MeasureEngine reused(4);
  const OverlaySnapshot before = OverlaySnapshot::capture(fx.net);
  const auto r_before = reused.lookup_latencies(before, queries);

  // Rewire the overlay; the old snapshot must stay valid and the reused
  // engine must agree with a fresh one on both snapshots.
  const LogicalGraph& g = fx.net.graph();
  const SlotId drop = g.neighbors(0).front();
  fx.net.remove_edge(0, drop);
  SlotId add = 1;
  while (add == drop || g.has_edge(0, add)) ++add;
  fx.net.add_edge(0, add);
  const OverlaySnapshot after = OverlaySnapshot::capture(fx.net);
  const auto r_after = reused.lookup_latencies(after, queries);

  MeasureEngine fresh(4);
  EXPECT_EQ(fresh.lookup_latencies(after, queries), r_after);
  EXPECT_EQ(fresh.lookup_latencies(before, queries), r_before);
}

// -------------------------------------------------------- worker group ----

/// Bit patterns, so -0.0 vs 0.0 and NaN payloads would count as changes.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(MeasureWorkerGroup, UnevenSourcesBitIdenticalOverRepeatedSweeps) {
  // Every seventh source asks for every slot (a full flood); the rest
  // ask for themselves, a flood that stops at once. Whichever thread
  // takes which source, every sweep must equal the serial one.
  auto fx = UnstructuredFixture::make(60, 7041);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  const auto proc = off_grid_delays(snap.slot_count());
  std::vector<QueryPair> queries;
  for (SlotId s = 0; s < snap.slot_count(); ++s) {
    if (s % 7 != 0) {
      queries.push_back({s, s});
      continue;
    }
    for (SlotId d = 0; d < snap.slot_count(); ++d) queries.push_back({s, d});
  }
  // Routed queries with a cost that grows with the source.
  const RouteLatencyFn routed = [](const QueryPair& q) {
    double x = 1.0 + 1e-3 * static_cast<double>(q.dst);
    for (SlotId k = 0; k < (q.src % 13) * 400; ++k) x = x * 1.0000001 + 1e-9;
    return x;
  };
  MeasureEngine serial(1);
  const auto want = bits(serial.lookup_latencies(snap, queries, &proc));
  const double want_avg =
      serial.average_lookup_latency(snap, queries, &proc);
  const auto want_routed = bits(serial.route_latencies(queries, routed));
  for (const std::size_t t : {2, 3, 8}) {
    MeasureEngine engine(t);
    for (int rep = 0; rep < 20; ++rep) {
      ASSERT_EQ(bits(engine.lookup_latencies(snap, queries, &proc)), want)
          << "threads " << t << " rep " << rep;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    engine.average_lookup_latency(snap, queries, &proc)),
                std::bit_cast<std::uint64_t>(want_avg))
          << "threads " << t << " rep " << rep;
      ASSERT_EQ(bits(engine.route_latencies(queries, routed)), want_routed)
          << "threads " << t << " rep " << rep;
    }
  }
}

TEST(MeasureWorkerGroup, RethrowsTheFirstFailureAfterEveryBlockRan) {
  std::vector<QueryPair> queries;
  for (SlotId i = 0; i < 1000; ++i) queries.push_back({i, i});
  std::atomic<std::size_t> calls{0};
  std::atomic<bool> last_ran{false};
  const RouteLatencyFn failing = [&](const QueryPair& q) {
    calls.fetch_add(1);
    if (q.src % 300 == 299) throw std::runtime_error(std::to_string(q.src));
    if (q.src + 1 == 1000) last_ran = true;
    return static_cast<double>(q.src);
  };
  MeasureEngine engine(4);
  try {
    (void)engine.route_latencies(queries, failing);
    FAIL() << "a failing route function must rethrow";
  } catch (const std::runtime_error& e) {
    // The query a serial pass would have failed on first.
    EXPECT_STREQ(e.what(), "299");
  }
  // Blocks past the failures ran, and none is still running: a failing
  // block stops at its failure, and the call returns after every block.
  EXPECT_TRUE(last_ran.load());
  const std::size_t at_return = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(calls.load(), at_return);
  // The group survives a failed sweep.
  const auto ok = engine.route_latencies(
      queries, [](const QueryPair& q) { return static_cast<double>(q.dst); });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(ok[i], static_cast<double>(i));
  }
}

TEST(MeasureWorkerGroup, SingleSourceSweepsRunOnTheCaller) {
  // A sweep with one source run (or one block of routed queries) needs
  // no workers; it must still answer like the serial engine.
  auto fx = UnstructuredFixture::make(40, 7042);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  std::vector<QueryPair> one_source;
  for (SlotId d = 0; d < snap.slot_count(); ++d) one_source.push_back({3, d});
  MeasureEngine serial(1);
  MeasureEngine parallel(4);
  EXPECT_EQ(bits(parallel.lookup_latencies(snap, one_source)),
            bits(serial.lookup_latencies(snap, one_source)));
  EXPECT_TRUE(parallel.lookup_latencies(snap, {}).empty());
  EXPECT_EQ(parallel.stats().exact_floods, 1u);
}

// ------------------------------------------------ measure_threads_for ----

constexpr std::size_t kAuto = MeasureEngine::kAutoThreads;

TEST(MeasureThreadsFor, AutoAloneTakesEveryCore) {
  EXPECT_EQ(measure_threads_for(kAuto, 1, 4), 4u);
  EXPECT_EQ(measure_threads_for(kAuto, 1, 1), 1u);
  EXPECT_EQ(measure_threads_for(kAuto, 0, 4), 4u);  // 0 runs count as 1
}

TEST(MeasureThreadsFor, AutoDividesTheCoresAmongConcurrentRuns) {
  EXPECT_EQ(measure_threads_for(kAuto, 4, 4), 1u);  // -j4 on 4 cores
  EXPECT_EQ(measure_threads_for(kAuto, 2, 4), 2u);
  EXPECT_EQ(measure_threads_for(kAuto, 2, 5), 2u);  // rounds down
  EXPECT_EQ(measure_threads_for(kAuto, 8, 4), 1u);  // never below one
}

TEST(MeasureThreadsFor, ExplicitCountsAreKept) {
  for (const std::size_t n : {0u, 1u, 3u, 6u, 256u}) {
    EXPECT_EQ(measure_threads_for(n, 1, 4), n);
    EXPECT_EQ(measure_threads_for(n, 4, 4), n);
    EXPECT_EQ(measure_threads_for(n, 16, 1), n);
  }
}

TEST(MeasureThreadsFor, ZeroHardwareCountsAsOne) {
  EXPECT_EQ(measure_threads_for(kAuto, 1, 0), 1u);
  EXPECT_EQ(measure_threads_for(kAuto, 4, 0), 1u);
  EXPECT_EQ(measure_threads_for(5, 4, 0), 5u);
}

TEST(MeasureThreadsFor, AutoEngineIsOneRunOwningTheMachine) {
  EXPECT_EQ(ExperimentSpec::kMeasureThreadsAuto, kAuto);
  const MeasureEngine engine(kAuto);
  EXPECT_EQ(engine.thread_count(),
            measure_threads_for(kAuto, 1, std::thread::hardware_concurrency()));
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
}

// ------------------------------------------------ measure_threads key ----

ExperimentSpec must_parse(const std::string& text) {
  const SpecResult parsed = ExperimentSpec::from_config(Config::parse(text));
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return parsed.ok() ? parsed.spec() : ExperimentSpec{};
}

TEST(MeasureThreadsKey, DefaultsToAuto) {
  EXPECT_EQ(must_parse("").measure_threads,
            ExperimentSpec::kMeasureThreadsAuto);
  // Programmatic specs and config files agree.
  EXPECT_EQ(ExperimentSpec{}.measure_threads,
            ExperimentSpec::kMeasureThreadsAuto);
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

/// The run's result JSON with measure_threads = `threads`, or at the
/// key's default when `threads` is empty.
std::string golden_json(const std::string& base, const std::string& threads) {
  Config config = Config::parse(base);
  if (!threads.empty()) config.set("measure_threads", threads);
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
  for (const char* threads : {"", "3", "4", "8"}) {
    EXPECT_EQ(serial, golden_json(kFig5Base, threads)) << threads;
  }
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
  for (const char* threads : {"", "3", "4", "8"}) {
    EXPECT_EQ(serial, golden_json(base, threads)) << threads;
  }
}

// -------------------------------------- counters v5 / measure stanza ----

TEST(MeasureCounters, V5ExposesKernelAndSnapshotCounters) {
  EXPECT_EQ(ExperimentResult::kCountersVersion, 7);
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse(kFig5Base));
  ASSERT_TRUE(parsed.ok());
  const ExperimentResult result = run_experiment(parsed.spec());
  // Every sampler tick asked the cache for a snapshot. The split is
  // exact and the same in every build: the cache keys on the overlay's
  // own version, and PROP-G swaps hosts between every two ticks.
  EXPECT_EQ(result.series.points().size(), 10u);
  EXPECT_EQ(result.measure_snapshot_captures, 10u);
  EXPECT_EQ(result.measure_snapshot_reuses, 0u);
  EXPECT_GT(result.measure_exact_floods, 0u);
  // Without a protocol the overlay never changes: one capture serves
  // every tick.
  const ExperimentResult idle = run_experiment(must_parse(
      std::string(kFig5Base) + "protocol = none\n"));
  EXPECT_EQ(idle.measure_snapshot_captures, 1u);
  EXPECT_EQ(idle.measure_snapshot_reuses, 9u);
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
