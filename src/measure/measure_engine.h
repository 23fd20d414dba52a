// Parallel, deterministic measurement engine.
//
// Fans the per-source floods (and per-query routed lookups) of a metric
// sweep out over a ThreadPool. Determinism contract: results are
// bit-identical to the serial path regardless of thread count, because
//   - each worker writes only its own disjoint, preallocated slots of
//     the output array (no shared accumulators, no result reordering),
//   - the flood kernel's distances are a pure function of the snapshot
//     (see below), and
//   - averages are reduced serially in query-index order after the
//     parallel map completes.
//
// The flood kernel, flood_snapshot, is a Dial bucket queue over the
// snapshot's exact double latencies. The bucket width is a power of two,
// W = 2^e ms <= the minimum edge latency (clamped to [2^-4, 2^6] ms), so
// floor(d * 2^-e) is exact and every bucket boundary is too. Its
// distances are bit-identical to the binary-heap Dijkstra of
// OverlayNetwork::flood_latencies: every cost is >= 0 and IEEE addition
// is monotone, so every correct label-setting or label-correcting
// shortest-path search reaches the same least fixpoint
// d[v] = min over edges (u, v) of fl(d[u] + c(u, v)). Pop order does not
// matter, only that the search runs to that fixpoint (docs/PERF.md).
// A point-to-point flood passes a target and stops after the first
// drained bucket whose upper edge lies above the target's distance:
// every entry still pending sits in a later bucket, so no later
// candidate can beat that distance and the value read is the one a
// full flood would return. Worker scratch is allocated once per worker
// and reused across sources and across snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "measure/overlay_snapshot.h"
#include "measure/query.h"

namespace propsim {

/// Flood-kernel selection for MeasureEngine. There is one kernel;
/// kFast is a retired enumerator kept so existing callers compile, and
/// MeasureEngine rejects it.
enum class MeasureMode { kExact, kFast };

/// Reusable per-worker flood state. A flood refills dist with +inf (one
/// O(V) pass, cheap beside the O(E) relaxations) and leaves every
/// queued[v] at 0: a full flood pops every entry it files, and a
/// targeted flood that stops early clears what it left pending.
///
/// Buckets are singly linked lists threaded through one entry pool:
/// `heads` is a circular ring (power-of-two size) of list heads, and a
/// flood appends every entry it files to `entries`. Both keep their
/// capacity across floods, so a steady-state flood allocates nothing.
struct MeasureScratch {
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;
  struct Entry {
    SlotId slot;
    std::uint32_t next;  // next entry of the same bucket, or kNoEntry
  };

  std::vector<double> dist;
  std::vector<std::uint8_t> queued;  // 1 while v has a pending entry
  std::vector<std::uint32_t> heads;  // all kNoEntry between floods
  std::vector<Entry> entries;

  /// Sizes for a snapshot of `n` slots and resets dist to +inf.
  void begin(std::size_t n);

  /// Distance from the last flood's source to v (+inf if unreached).
  double distance(SlotId v) const;
};

/// Single-source shortest latency over a snapshot, bit-identical to
/// OverlayNetwork::flood_latencies over the live overlay (with the same
/// link filter applied at capture). Edge latencies and processing
/// delays must be >= 0 (never NaN). Results land in `scratch`; read
/// them through scratch.distance().
///
/// With a `target`, the flood may stop as soon as the target's distance
/// is final. Only scratch.distance(target) is then defined (bit-identical
/// to the full flood's, +inf when unreachable); other slots may hold
/// upper bounds or +inf. kInvalidSlot floods every slot.
void flood_snapshot(const OverlaySnapshot& snap, SlotId source,
                    const std::vector<double>* processing_delay_ms,
                    MeasureScratch& scratch, SlotId target = kInvalidSlot);

/// Deterministic work counters for one engine's lifetime: floods are
/// counted per distinct source per sweep (before the parallel fan-out),
/// so values are invariant across thread counts.
struct MeasureStats {
  std::uint64_t exact_floods = 0;
  /// Reserved, always 0: the fixed-point kernel it counted is gone.
  std::uint64_t fast_floods = 0;
};

class MeasureEngine {
 public:
  /// Sentinel for "one worker per hardware thread".
  static constexpr std::size_t kAutoThreads = static_cast<std::size_t>(-1);

  /// 0 and 1 both mean serial (no pool, no worker threads); kAutoThreads
  /// resolves to std::thread::hardware_concurrency(). `mode` must be
  /// kExact (see MeasureMode).
  explicit MeasureEngine(std::size_t threads = 1,
                         MeasureMode mode = MeasureMode::kExact);

  /// Resolved worker count (>= 1).
  std::size_t thread_count() const { return threads_; }

  /// Flood counts since construction.
  const MeasureStats& stats() const { return stats_; }

  /// Flood first-response latency of each query (queries grouped by
  /// source, one Dijkstra per distinct source, sources chunked over the
  /// workers). Mirrors metrics' unstructured_lookup_latencies.
  std::vector<double> lookup_latencies(
      const OverlaySnapshot& snap, std::span<const QueryPair> queries,
      const std::vector<double>* processing_delay_ms = nullptr);

  /// Mean of lookup_latencies, reduced in query-index order. Unlike
  /// lookup_latencies this reuses a member result buffer, so a
  /// steady-state sweep allocates nothing.
  double average_lookup_latency(
      const OverlaySnapshot& snap, std::span<const QueryPair> queries,
      const std::vector<double>* processing_delay_ms = nullptr);

  /// fn(query) for each query, chunked over the workers. `fn` must be
  /// safe to call concurrently (see RouteLatencyFn).
  std::vector<double> route_latencies(std::span<const QueryPair> queries,
                                      const RouteLatencyFn& fn);

  /// Mean of route_latencies, reduced in query-index order.
  double average_route_latency(std::span<const QueryPair> queries,
                               const RouteLatencyFn& fn);

  /// Direct (physical shortest-path) latency of each query under the
  /// overlay's current placement.
  std::vector<double> direct_latencies(const OverlayNetwork& net,
                                       std::span<const QueryPair> queries);

  /// Mean of direct_latencies, reduced in query-index order.
  double average_direct_latency(const OverlayNetwork& net,
                                std::span<const QueryPair> queries);

  /// Routed vs direct latency with the given router (paper stretch).
  StretchResult stretch(const OverlayNetwork& net,
                        std::span<const QueryPair> queries,
                        const RouteLatencyFn& fn);

 private:
  struct Run {
    std::size_t begin;
    std::size_t end;  // half-open range into order_
  };

  /// Runs body(chunk, begin, end) over `count` items split into at most
  /// thread_count() contiguous chunks; serial engines run inline.
  void for_chunks(std::size_t count,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& body);

  /// Shared implementation of the lookup sweeps: groups queries by
  /// source into the reusable order_/runs_ buffers and writes per-query
  /// latencies into `out` (resized to fit).
  void run_lookup(const OverlaySnapshot& snap,
                  std::span<const QueryPair> queries,
                  const std::vector<double>* processing_delay_ms,
                  std::vector<double>& out);

  std::size_t threads_;
  MeasureStats stats_;
  std::unique_ptr<ThreadPool> pool_;  // null when serial
  std::vector<std::unique_ptr<MeasureScratch>> scratch_;  // one per chunk
  // Sweep-shaped buffers reused across calls (the engine is not
  // re-entrant; callers already serialize sweeps).
  std::vector<std::size_t> order_;
  std::vector<Run> runs_;
  std::vector<double> avg_out_;
};

}  // namespace propsim
