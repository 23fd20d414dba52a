// Parallel, deterministic measurement engine.
//
// Fans the per-source floods (and per-query routed lookups) of a metric
// sweep out over a persistent worker group. Determinism contract:
// results are bit-identical to the serial path regardless of thread
// count, because
//   - each participant writes only the disjoint, preallocated slots of
//     the output array that belong to the blocks it took (no shared
//     accumulators, no result reordering),
//   - the flood kernel's distances are a pure function of the snapshot
//     (see below), and
//   - averages are reduced serially in query-index order after the
//     parallel map completes.
// Which participant takes which block therefore changes nothing, so
// blocks are handed out from an atomic cursor: a thread that finishes
// early takes the next source instead of idling behind a slow one.
//
// The flood kernel, flood_snapshot, is a Dial bucket queue over the
// snapshot's exact double latencies; flood_overlay runs the same kernel
// over the live overlay's stored edge weights. The bucket width is a
// power of two, W = 2^e ms <= a lower bound on the edge latencies (the
// snapshot's minimum edge, or the overlay's lightest physical link),
// clamped to [2^-4, 2^6] ms, so floor(d * 2^-e) is exact and every
// bucket boundary is too. Its distances are bit-identical to the
// reference flood, the binary-heap Dijkstra of
// OverlayNetwork::flood_latencies_into: every cost is >= 0 and IEEE
// addition is monotone, so every correct label-setting or
// label-correcting shortest-path search reaches the same least fixpoint
// d[v] = min over edges (u, v) of fl(d[u] + c(u, v)). Pop order does
// not matter, only that the search runs to that fixpoint
// (docs/PERF.md); so does the width, as long as it is a power of two.
// A flood given targets stops after the first drained bucket whose
// upper edge lies above every target's distance: every entry still
// pending sits in a later bucket, so no later candidate can beat those
// distances and the values read are the ones a full flood would
// return. A sweep passes each source's destinations as its targets.
//
// A live lookup (flood_overlay with one target, on a hierarchical
// oracle) keys each queued slot by A* instead: its distance plus the
// oracle latency from its host to the target's host, the whole key
// deflated by (slot count + 2 * physical nodes + 10) units of 2^-53.
// Every overlay route costs at least the physical distance between its
// ends, and the margin covers the rounding of both the route's partial
// sums and the oracle's own, so a key never exceeds any route its slot
// could still extend to the target; the stop test is unchanged and the
// distances read stay bit-identical to a full flood (docs/PERF.md,
// "Oracle-guided live lookups"). Sweeps, multi-target floods and
// Dijkstra-row oracles keep the zero estimate: plain Dial.
// Scratch is allocated once per participant and reused across sources
// and across snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "measure/overlay_snapshot.h"
#include "measure/query.h"

namespace propsim {

/// Flood-kernel selection for MeasureEngine. There is one kernel;
/// kFast is a retired enumerator kept so existing callers compile, and
/// MeasureEngine rejects it.
enum class MeasureMode { kExact, kFast };

/// Reusable per-worker flood state. A flood refills dist with +inf (one
/// O(V) pass, cheap beside the O(E) relaxations) and leaves every
/// pending[v] at kIdle: a full flood pops every entry it files, and a
/// targeted flood that stops early clears what it left pending.
///
/// pending[v] is the bucket of dist[v] while v waits to be processed.
/// An entry is processed only while its slot is pending (a popped entry
/// whose slot is idle is stale), and an improved pending slot is filed
/// again only when its bucket changes.
///
/// Buckets are singly linked lists threaded through one entry pool:
/// `heads` is a circular ring (power-of-two size) of list heads, and a
/// flood appends every entry it files to `entries`. Both keep their
/// capacity across floods, so a steady-state flood allocates nothing.
struct MeasureScratch {
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  struct Entry {
    SlotId slot;
    std::uint32_t next;  // next entry of the same bucket, or kNoEntry
  };

  std::vector<double> dist;
  std::vector<std::uint64_t> pending;  // bucket while queued, else kIdle
  std::vector<std::uint32_t> heads;    // all kNoEntry between floods
  std::vector<Entry> entries;
  /// Target buffer the caller may fill and pass back as a flood's
  /// targets; MeasureEngine keeps each source run's destinations here.
  /// No flood writes it.
  std::vector<SlotId> targets;

  /// Sizes for a snapshot of `n` slots and resets dist to +inf.
  void begin(std::size_t n);

  /// Grows every buffer to at least `other`'s capacity (between floods),
  /// so a flood that fit in `other` allocates nothing here either.
  void match_capacity(const MeasureScratch& other);

  /// Distance from the last flood's source to v (+inf if unreached).
  double distance(SlotId v) const;
};

/// Single-source shortest latency over a snapshot, bit-identical to
/// OverlayNetwork::flood_latencies_into over the live overlay (with the
/// same link filter applied at capture). Edge latencies and processing
/// delays must be >= 0 (never NaN). Results land in `scratch`; read
/// them through scratch.distance().
///
/// With `targets`, the flood may stop as soon as every target's distance
/// is final. Only scratch.distance(t) for t in targets is then defined
/// (bit-identical to the full flood's, +inf when unreachable); other
/// slots may hold upper bounds or +inf. Targets may repeat and may name
/// inactive slots. An empty span floods every slot. `source` must be an
/// active slot and every target a slot of the snapshot (checked).
void flood_snapshot(const OverlaySnapshot& snap, SlotId source,
                    const std::vector<double>* processing_delay_ms,
                    MeasureScratch& scratch,
                    std::span<const SlotId> targets = {});

/// flood_snapshot over the live overlay, with no capture: the same
/// kernel reads each slot's neighbours and stored weights in place and
/// asks `link_ok` (optional) before relaxing each edge, which gives the
/// bits a flood over OverlaySnapshot::capture(net, link_ok) gives at
/// every target. With exactly one target, bound to a host, and a
/// hierarchical oracle (net.oracle().hierarchical()), the flood is an
/// A* search guided by the oracle latency to the target's host: it
/// stops sooner and other slots' distances are left as upper bounds
/// more often, but the target's bits are the full flood's. Otherwise
/// it is plain Dial, as flood_snapshot. Allocates nothing once
/// `scratch` has grown to the overlay.
void flood_overlay(const OverlayNetwork& net,
                   const OverlayNetwork::LinkFilter* link_ok, SlotId source,
                   const std::vector<double>* processing_delay_ms,
                   MeasureScratch& scratch,
                   std::span<const SlotId> targets = {});

/// Measure threads for one of `concurrent_runs` runs sharing `hardware`
/// threads: kAutoThreads (MeasureEngine's, equal to ExperimentSpec's
/// kMeasureThreadsAuto) resolves to max(1, hardware / concurrent_runs),
/// and an explicit count is kept as given. A count of 0 for either
/// argument counts as 1. Cores are divided among concurrent runs, never
/// multiplied: a sweep running one simulation per core measures each
/// serially.
std::size_t measure_threads_for(std::size_t requested,
                                std::size_t concurrent_runs,
                                std::size_t hardware);

/// Deterministic work counters for one engine's lifetime: floods are
/// counted per distinct source per sweep (before the parallel fan-out),
/// so values are invariant across thread counts.
struct MeasureStats {
  std::uint64_t exact_floods = 0;
  /// Reserved, always 0: the fixed-point kernel it counted is gone.
  std::uint64_t fast_floods = 0;
};

class WorkerGroup;

class MeasureEngine {
 public:
  /// Sentinel for "the cores this run owns" (see measure_threads_for).
  static constexpr std::size_t kAutoThreads = static_cast<std::size_t>(-1);

  /// 0 and 1 both mean serial (no worker threads); kAutoThreads resolves
  /// to measure_threads_for(kAutoThreads, 1, hardware threads), i.e. one
  /// run owning the machine. `mode` must be kExact (see MeasureMode).
  /// Worker threads are spawned on the first sweep that can use them.
  explicit MeasureEngine(std::size_t threads = 1,
                         MeasureMode mode = MeasureMode::kExact);
  ~MeasureEngine();

  MeasureEngine(const MeasureEngine&) = delete;
  MeasureEngine& operator=(const MeasureEngine&) = delete;

  /// Resolved thread count (>= 1): the calling thread plus its workers.
  std::size_t thread_count() const { return threads_; }

  /// Flood counts since construction.
  const MeasureStats& stats() const { return stats_; }

  /// Flood first-response latency of each query (queries grouped by
  /// source, one flood per distinct source that stops once its last
  /// destination is final, sources handed to the threads one at a
  /// time). Every src must be an active slot and every dst a slot of
  /// the snapshot (checked).
  std::vector<double> lookup_latencies(
      const OverlaySnapshot& snap, std::span<const QueryPair> queries,
      const std::vector<double>* processing_delay_ms = nullptr);

  /// Mean of lookup_latencies, reduced in query-index order. Unlike
  /// lookup_latencies this reuses a member result buffer, so a
  /// steady-state sweep allocates nothing.
  double average_lookup_latency(
      const OverlaySnapshot& snap, std::span<const QueryPair> queries,
      const std::vector<double>* processing_delay_ms = nullptr);

  /// fn(query) for each query, in blocks over the workers. `fn` must be
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

  /// Runs body(scratch, begin, end) over [0, count) in blocks of at most
  /// `block` items, each with the scratch of the thread that runs it.
  /// Serial engines, and sweeps of one block, run inline on the calling
  /// thread; otherwise the caller and the worker group take blocks
  /// until none is left. Allocates nothing once the group exists.
  template <class Body>
  void for_blocks(std::size_t count, std::size_t block, const Body& body);

  /// Shared implementation of the lookup sweeps: groups queries by
  /// source into the reusable order_/runs_ buffers and writes per-query
  /// latencies into `out` (resized to fit).
  void run_lookup(const OverlaySnapshot& snap,
                  std::span<const QueryPair> queries,
                  const std::vector<double>* processing_delay_ms,
                  std::vector<double>& out);

  /// Grows every thread's scratch to the largest one's capacity. Blocks
  /// go to whichever thread is free, so after one sweep each scratch has
  /// fit only the floods it happened to take; evened out, a repeated
  /// sweep allocates nothing whoever takes which source.
  void even_out_scratch();

  std::size_t threads_;
  MeasureStats stats_;
  // scratch_[0] is the calling thread's, scratch_[w] worker w's.
  std::vector<std::unique_ptr<MeasureScratch>> scratch_;
  // Sweep-shaped buffers reused across calls (the engine is not
  // re-entrant; callers already serialize sweeps).
  std::vector<std::size_t> order_;
  std::vector<Run> runs_;
  std::vector<double> avg_out_;
  // Null until the first sweep with more than one block; then
  // threads_ - 1 workers that sleep between sweeps. Last, so the
  // workers are joined before anything they touch is destroyed.
  std::unique_ptr<WorkerGroup> group_;
};

}  // namespace propsim
