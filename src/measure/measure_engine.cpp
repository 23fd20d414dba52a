#include "measure/measure_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "common/worker_group.h"

namespace propsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// flood_snapshot's bucket width is W = 2^e ms: the largest power of two
// <= the snapshot's minimum edge latency, clamped to [2^-4, 2^6] ms. The
// clamp bounds the ring for degenerate snapshots (zero or sub-62.5us
// edges, or none at all). When W <= every edge cost, a relaxation never
// lands in the bucket being drained, so each slot settles on its first
// pop (classic Dial). Otherwise a slot improved inside the open bucket
// is filed again and the bucket drains to a fixpoint.
constexpr int kMinBucketExp = -4;
constexpr int kMaxBucketExp = 6;

int bucket_exponent(double min_edge_ms) {
  if (!(min_edge_ms > 0.0)) return kMinBucketExp;  // zero-cost edges
  return std::clamp(std::ilogb(min_edge_ms), kMinBucketExp, kMaxBucketExp);
}

/// Bucket indices saturate here, so no finite distance overflows the
/// integer conversion; everything past it shares one bucket.
constexpr std::uint64_t kFarBucket = std::uint64_t{1} << 62;

/// Ring ceiling. An entry further ahead of the drain than this is filed
/// in the farthest slot instead: it is popped early, which costs extra
/// relaxations but not correctness (see flood_snapshot).
constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 16;

/// Regrows the circular ring of bucket heads to hold `needed` buckets
/// ahead of `cur`, keeping every pending bucket at its absolute index.
void grow_ring(std::vector<std::uint32_t>& heads, std::uint64_t cur,
               std::uint64_t needed) {
  std::vector<std::uint32_t> grown(std::bit_ceil(needed),
                                   MeasureScratch::kNoEntry);
  for (std::uint64_t b = cur; b < cur + heads.size(); ++b) {
    grown[b & (grown.size() - 1)] = heads[b & (heads.size() - 1)];
  }
  heads = std::move(grown);
}
}  // namespace

void MeasureScratch::begin(std::size_t n) {
  dist.assign(n, kInf);
  if (pending.size() != n) pending.assign(n, kIdle);
  if (heads.empty()) heads.assign(1, kNoEntry);
  entries.clear();
}

void MeasureScratch::match_capacity(const MeasureScratch& other) {
  dist.reserve(other.dist.capacity());
  pending.reserve(other.pending.capacity());
  // Between floods every head is empty, so a longer ring is a fresh one.
  if (heads.size() < other.heads.size()) {
    heads.assign(other.heads.size(), kNoEntry);
  }
  entries.reserve(other.entries.capacity());
  targets.reserve(other.targets.capacity());
}

double MeasureScratch::distance(SlotId v) const {
  PROPSIM_DCHECK(v < dist.size());
  return dist[v];
}

namespace {

/// The live overlay as flood rows: each slot's neighbours and their
/// stored weights, bounded below by the lightest physical link.
struct LiveRows {
  const OverlayNetwork& net;

  std::size_t slot_count() const { return net.graph().slot_count(); }
  bool is_active(SlotId s) const { return net.graph().is_active(s); }
  double min_edge_ms() const { return net.min_link_latency(); }
  std::span<const SlotId> targets(SlotId s) const {
    return net.graph().neighbors(s);
  }
  std::span<const double> latencies(SlotId s) const {
    return net.neighbor_latencies(s);
  }
};

/// Every edge passes (the snapshot already dropped filtered edges).
struct KeepAll {
  bool operator()(SlotId /*from*/, SlotId /*to*/) const { return true; }
};

/// The zero estimate: a slot's key is its distance (plain Dial). Every
/// sweep and every multi-target or untargeted flood runs with it.
struct NoEstimate {
  static constexpr bool kGuided = false;
  double key(SlotId /*v*/, double d) const { return d; }
};

/// The A* estimate of a single-target live flood: key(v, d) is
/// (d + oracle latency from v's host to the target's host), deflated by
/// a margin that covers the rounding of every overlay route and of the
/// oracle's own sums, so a key never exceeds the bits of any route that
/// v's distance could still extend to the target (docs/PERF.md,
/// "Oracle-guided live lookups").
struct OracleEstimate {
  static constexpr bool kGuided = true;
  const LatencyOracle& oracle;
  const Placement& placement;
  NodeId target_host;
  double deflate;  // 1 - m * 2^-53, exact

  double key(SlotId v, double d) const {
    return (d + oracle.latency(placement.host_of(v), target_host)) * deflate;
  }
};

/// OracleEstimate's deflation for an overlay of `slots` slots over
/// `hosts` physical nodes: 1 - m * 2^-53 with m = slots + 2 * hosts + 10,
/// exact for any m below 2^52.
double estimate_deflation(std::size_t slots, std::size_t hosts) {
  const double m = static_cast<double>(slots) +
                   2.0 * static_cast<double>(hosts) + 10.0;
  return 1.0 - std::ldexp(m, -53);
}

/// The Dial kernel behind flood_snapshot and flood_overlay. `Rows` is an
/// OverlaySnapshot or LiveRows; `keep(u, v)` is asked before relaxing
/// each edge; `delay` is the per-slot processing delay when kDelays;
/// `est.key(v, d)` is the bucket key of slot v at distance d: NoEstimate
/// files by distance, OracleEstimate by an admissible A* key. The
/// bucket width only needs to be a power of two: by the fixpoint
/// argument in measure_engine.h any width yields the same distances and
/// the same early stop, and a width at most the lightest edge only
/// saves re-filing.
template <bool kDelays, class Rows, class Keep, class Estimate>
void dial_kernel(const Rows& rows, Keep keep, const Estimate& est,
                 SlotId source, const double* delay, MeasureScratch& scratch,
                 std::span<const SlotId> targets) {
  const std::size_t n = rows.slot_count();
  PROPSIM_CHECK(source < n);
  PROPSIM_CHECK(rows.is_active(source));
  for (const SlotId t : targets) PROPSIM_CHECK(t < n);
  scratch.begin(n);
  double* const dist = scratch.dist.data();
  std::uint64_t* const pending = scratch.pending.data();
  auto& heads = scratch.heads;  // all empty: the last flood drained them
  auto& entries = scratch.entries;
  // Raw view of the ring, refreshed whenever grow_ring replaces it.
  std::uint32_t* ring = heads.data();
  std::uint64_t mask = heads.size() - 1;
  // Multiplying by a power of two is exact, so a distance's bucket is
  // exactly floor(d / W). Below kFarBucket the quotient fits int64_t,
  // whose conversion is one instruction where uint64_t's is a branch.
  const double inv_width =
      std::ldexp(1.0, -bucket_exponent(rows.min_edge_ms()));
  auto bucket_of = [inv_width](double d) {
    const double q = d * inv_width;
    return q < static_cast<double>(kFarBucket)
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(q))
               : kFarBucket;
  };
  // Absolute index of the bucket being drained, starting at the
  // source's (0 without an estimate). A later key below it comes only
  // from rounding and is filed in the open bucket (see below).
  std::uint64_t cur = bucket_of(est.key(source, 0.0));
  std::size_t unpopped = 0;  // filed entries not yet popped, stale included
  auto file = [&](SlotId v, std::uint64_t b) {
    PROPSIM_DCHECK(b >= cur);
    const std::uint64_t ahead = std::min(b - cur, kMaxBuckets - 1);
    if (ahead > mask) {
      grow_ring(heads, cur, ahead + 1);
      ring = heads.data();
      mask = heads.size() - 1;
    }
    std::uint32_t& head = ring[(cur + ahead) & mask];
    entries.push_back({v, head});
    head = static_cast<std::uint32_t>(entries.size() - 1);
    pending[v] = b;
    ++unpopped;
  };

  std::size_t final_targets = 0;  // targets[0, final_targets) are final
  dist[source] = 0.0;
  file(source, cur);
  while (unpopped > 0) {
    // Pop until the open bucket is empty, re-reading its head each time:
    // relaxations may file into it, and a ring growth moves it.
    for (;;) {
      std::uint32_t& head = ring[cur & mask];
      if (head == MeasureScratch::kNoEntry) break;
      const SlotId u = entries[head].slot;
      head = entries[head].next;
      --unpopped;
      // Only a queued slot is processed, always at its current distance,
      // so pop order changes the work done but never the fixpoint the
      // drain stops at.
      if (pending[u] == MeasureScratch::kIdle) continue;  // stale
      pending[u] = MeasureScratch::kIdle;
      const double du = dist[u];
      const auto out = rows.targets(u);
      const auto lats = rows.latencies(u);
      for (std::size_t e = 0; e < out.size(); ++e) {
        const SlotId v = out[e];
        if (!keep(u, v)) continue;
        // Same per-edge arithmetic as the heap flood: lats[e] is the
        // identical slot_latency(u, v) double, stored by the overlay.
        double cost = lats[e];
        if constexpr (kDelays) cost += delay[v];
        const double candidate = du + cost;
        // Unreached slots hold +inf, which no candidate (+inf included)
        // beats, so +inf is never filed and reads back as +inf.
        if (!(candidate < dist[v])) continue;
        dist[v] = candidate;
        // A queued slot whose bucket did not change keeps its entry. A
        // guided key may fall below the open bucket (the estimate is
        // admissible, not consistent, once rounded): such a slot is
        // filed in the open bucket, which drains to a fixpoint anyway.
        std::uint64_t b = bucket_of(est.key(v, candidate));
        if constexpr (Estimate::kGuided) b = std::max(b, cur);
        if (pending[v] != b) file(v, b);
      }
    }
    // Bucket cur is drained, so every pending entry's slot has a key
    // >= (cur + 1) * W. Without an estimate the key is the distance, and
    // costs >= 0 with monotone addition keep every later candidate there
    // too; with one, every later candidate at the target is at least
    // the key of the pending slot it extends (the margin argument). A
    // target below that bound is final, and stays final as cur grows,
    // so one cursor walks the targets. Once all are final, leave the
    // scratch as a full flood would: nothing pending, every ring head
    // empty.
    if (!targets.empty()) {
      while (final_targets < targets.size() &&
             bucket_of(dist[targets[final_targets]]) <= cur) {
        ++final_targets;
      }
      if (final_targets == targets.size()) {
        for (const auto& entry : entries) {
          pending[entry.slot] = MeasureScratch::kIdle;
        }
        std::fill(heads.begin(), heads.end(), MeasureScratch::kNoEntry);
        return;
      }
    }
    ++cur;
  }
}

/// Picks the kernel instance for the delay case, so the per-edge path
/// of a flood without processing delays carries no delay branch.
template <class Rows, class Keep, class Estimate = NoEstimate>
void dial_flood(const Rows& rows, Keep keep, SlotId source,
                const std::vector<double>* processing_delay_ms,
                MeasureScratch& scratch, std::span<const SlotId> targets,
                const Estimate& est = {}) {
  if (processing_delay_ms == nullptr) {
    dial_kernel<false>(rows, keep, est, source, nullptr, scratch, targets);
    return;
  }
  PROPSIM_CHECK(processing_delay_ms->size() == rows.slot_count());
  dial_kernel<true>(rows, keep, est, source, processing_delay_ms->data(),
                    scratch, targets);
}

/// dial_flood over the live rows, guided by the oracle when the flood
/// has one bound target and the oracle answers point queries in O(1)
/// (hierarchical). A Dijkstra-row oracle would fetch or compute a row
/// per lookup, which costs more than the stop saves (docs/PERF.md), so
/// it floods with the zero estimate, as does every other flood.
template <class Keep>
void live_flood(const OverlayNetwork& net, Keep keep, SlotId source,
                const std::vector<double>* processing_delay_ms,
                MeasureScratch& scratch, std::span<const SlotId> targets) {
  const LiveRows rows{net};
  const LatencyOracle& oracle = net.oracle();
  if (targets.size() == 1 && oracle.hierarchical() &&
      targets[0] < net.placement().slot_capacity() &&
      net.placement().slot_bound(targets[0])) {
    const OracleEstimate est{
        oracle, net.placement(), net.placement().host_of(targets[0]),
        estimate_deflation(rows.slot_count(), oracle.physical().node_count())};
    dial_flood(rows, keep, source, processing_delay_ms, scratch, targets,
               est);
    return;
  }
  dial_flood(rows, keep, source, processing_delay_ms, scratch, targets);
}

}  // namespace

void flood_snapshot(const OverlaySnapshot& snap, SlotId source,
                    const std::vector<double>* processing_delay_ms,
                    MeasureScratch& scratch,
                    std::span<const SlotId> targets) {
  dial_flood(snap, KeepAll{}, source, processing_delay_ms, scratch, targets);
}

void flood_overlay(const OverlayNetwork& net,
                   const OverlayNetwork::LinkFilter* link_ok, SlotId source,
                   const std::vector<double>* processing_delay_ms,
                   MeasureScratch& scratch,
                   std::span<const SlotId> targets) {
  if (link_ok == nullptr) {
    live_flood(net, KeepAll{}, source, processing_delay_ms, scratch, targets);
    return;
  }
  live_flood(
      net, [link_ok](SlotId u, SlotId v) { return (*link_ok)(u, v); },
      source, processing_delay_ms, scratch, targets);
}

std::size_t measure_threads_for(std::size_t requested,
                                std::size_t concurrent_runs,
                                std::size_t hardware) {
  if (requested != MeasureEngine::kAutoThreads) return requested;
  return std::max<std::size_t>(std::max<std::size_t>(hardware, 1) /
                                   std::max<std::size_t>(concurrent_runs, 1),
                               1);
}

namespace {
/// Routed and direct queries cost about a microsecond each, so their
/// sweeps hand them out this many at a time, one cursor step per block.
constexpr std::size_t kQueryBlock = 64;
}  // namespace

MeasureEngine::MeasureEngine(std::size_t threads, MeasureMode mode) {
  PROPSIM_CHECK(mode == MeasureMode::kExact);
  threads_ = std::max<std::size_t>(
      measure_threads_for(threads, 1, std::thread::hardware_concurrency()),
      1);
  scratch_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    scratch_.push_back(std::make_unique<MeasureScratch>());
  }
}

MeasureEngine::~MeasureEngine() = default;

template <class Body>
void MeasureEngine::for_blocks(std::size_t count, std::size_t block,
                               const Body& body) {
  if (count == 0) return;
  if (threads_ == 1 || count <= block) {
    body(*scratch_[0], 0, count);
    return;
  }
  if (group_ == nullptr) {
    group_ = std::make_unique<WorkerGroup>(threads_ - 1);
  }
  group_->run(count, block,
              [&](std::size_t participant, std::size_t begin,
                  std::size_t end) {
                body(*scratch_[participant], begin, end);
              });
}

void MeasureEngine::run_lookup(const OverlaySnapshot& snap,
                               std::span<const QueryPair> queries,
                               const std::vector<double>* processing_delay_ms,
                               std::vector<double>& out) {
  // One flood per distinct source: order query indices by source,
  // then hand the contiguous same-source runs to the workers one at a
  // time. Each writes only out[idx] for the runs it took. order_ and
  // runs_ are member buffers so a steady-state sweep reallocates
  // nothing.
  order_.resize(queries.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (queries[a].src != queries[b].src) {
                return queries[a].src < queries[b].src;
              }
              return a < b;
            });
  runs_.clear();
  for (std::size_t i = 0; i < order_.size();) {
    std::size_t j = i + 1;
    while (j < order_.size() &&
           queries[order_[j]].src == queries[order_[i]].src) {
      ++j;
    }
    runs_.push_back(Run{i, j});
    i = j;
  }

  stats_.exact_floods += runs_.size();

  out.assign(queries.size(), 0.0);
  for_blocks(runs_.size(), 1, [&](MeasureScratch& scratch, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const Run& run = runs_[r];
      const SlotId src = queries[order_[run.begin]].src;
      // The run's destinations are the flood's targets: it stops once
      // the last of them is final.
      scratch.targets.clear();
      for (std::size_t k = run.begin; k < run.end; ++k) {
        scratch.targets.push_back(queries[order_[k]].dst);
      }
      flood_snapshot(snap, src, processing_delay_ms, scratch,
                     scratch.targets);
#ifdef PROPSIM_PARANOID
      // Re-flood the source in full: every target the early stop read
      // must carry the full flood's bits.
      std::vector<double> early;
      for (const SlotId t : scratch.targets) {
        early.push_back(scratch.distance(t));
      }
      flood_snapshot(snap, src, processing_delay_ms, scratch);
      for (std::size_t i = 0; i < early.size(); ++i) {
        PROPSIM_CHECK(std::bit_cast<std::uint64_t>(early[i]) ==
                          std::bit_cast<std::uint64_t>(
                              scratch.distance(scratch.targets[i])) &&
                      "early-stopped sweep flood disagrees with a full one");
      }
#endif
      for (std::size_t k = run.begin; k < run.end; ++k) {
        out[order_[k]] = scratch.distance(queries[order_[k]].dst);
      }
    }
  });
  if (group_ != nullptr) even_out_scratch();
}

void MeasureEngine::even_out_scratch() {
  MeasureScratch& first = *scratch_[0];
  for (const auto& other : scratch_) first.match_capacity(*other);
  for (const auto& other : scratch_) other->match_capacity(first);
}

std::vector<double> MeasureEngine::lookup_latencies(
    const OverlaySnapshot& snap, std::span<const QueryPair> queries,
    const std::vector<double>* processing_delay_ms) {
  std::vector<double> out;
  run_lookup(snap, queries, processing_delay_ms, out);
  return out;
}

double MeasureEngine::average_lookup_latency(
    const OverlaySnapshot& snap, std::span<const QueryPair> queries,
    const std::vector<double>* processing_delay_ms) {
  PROPSIM_CHECK(!queries.empty());
  run_lookup(snap, queries, processing_delay_ms, avg_out_);
  double sum = 0.0;
  for (const double v : avg_out_) sum += v;
  return sum / static_cast<double>(avg_out_.size());
}

std::vector<double> MeasureEngine::route_latencies(
    std::span<const QueryPair> queries, const RouteLatencyFn& fn) {
  std::vector<double> out(queries.size(), 0.0);
  for_blocks(queries.size(), kQueryBlock,
             [&](MeasureScratch& /*scratch*/, std::size_t begin,
                 std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 out[i] = fn(queries[i]);
               }
             });
  return out;
}

double MeasureEngine::average_route_latency(
    std::span<const QueryPair> queries, const RouteLatencyFn& fn) {
  PROPSIM_CHECK(!queries.empty());
  const auto lat = route_latencies(queries, fn);
  double sum = 0.0;
  for (const double v : lat) sum += v;
  return sum / static_cast<double>(lat.size());
}

std::vector<double> MeasureEngine::direct_latencies(
    const OverlayNetwork& net, std::span<const QueryPair> queries) {
  std::vector<double> out(queries.size(), 0.0);
  for_blocks(queries.size(), kQueryBlock,
             [&](MeasureScratch& /*scratch*/, std::size_t begin,
                 std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 out[i] = net.slot_latency(queries[i].src, queries[i].dst);
               }
             });
  return out;
}

double MeasureEngine::average_direct_latency(
    const OverlayNetwork& net, std::span<const QueryPair> queries) {
  PROPSIM_CHECK(!queries.empty());
  const auto lat = direct_latencies(net, queries);
  double sum = 0.0;
  for (const double v : lat) sum += v;
  return sum / static_cast<double>(lat.size());
}

StretchResult MeasureEngine::stretch(const OverlayNetwork& net,
                                     std::span<const QueryPair> queries,
                                     const RouteLatencyFn& fn) {
  StretchResult r;
  r.logical_al = average_route_latency(queries, fn);
  r.physical_al = average_direct_latency(net, queries);
  PROPSIM_CHECK(r.physical_al > 0.0);
  r.stretch = r.logical_al / r.physical_al;
  return r;
}

}  // namespace propsim
