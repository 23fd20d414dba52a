// OverlayNetwork: a logical graph, a placement binding slots to physical
// hosts, and the physical latency oracle — everything a location-aware
// protocol needs in one place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/indexed_priority_queue.h"
#include "common/rng.h"
#include "obs/event_bus.h"
#include "overlay/logical_graph.h"
#include "overlay/placement.h"
#include "overlay/slot_marks.h"
#include "sim/traffic.h"
#include "topology/latency_oracle.h"

namespace propsim {

class OverlayNetwork {
 public:
  /// `oracle` must outlive the overlay.
  OverlayNetwork(LogicalGraph graph, Placement placement,
                 const LatencyOracle& oracle);

  LogicalGraph& graph() { return graph_; }
  const LogicalGraph& graph() const { return graph_; }
  Placement& placement() { return placement_; }
  const Placement& placement() const { return placement_; }
  const LatencyOracle& oracle() const { return *oracle_; }
  TrafficCounter& traffic() { return traffic_; }
  const TrafficCounter& traffic() const { return traffic_; }

  /// Observability hook shared by every engine that works over this
  /// overlay (PROP, LTM, churn, lookup traffic, floods): emitted events
  /// go to `bus` (not owned, may be null, must outlive the overlay).
  void set_trace(obs::EventBus* bus) { trace_ = bus; }
  obs::EventBus* trace() const { return trace_; }

  std::size_t size() const { return graph_.active_count(); }

  /// The later of the graph's and the placement's versions: it rises on
  /// every mutation of either, so an unchanged version means nothing a
  /// snapshot of this overlay reads has changed.
  std::uint64_t version() const {
    return std::max(graph_.version(), placement_.version());
  }

  /// Physical latency between the hosts occupying two slots (ms).
  double slot_latency(SlotId a, SlotId b) const {
    if (a == b) return 0.0;
    return oracle_->latency(placement_.host_of(a), placement_.host_of(b));
  }

  /// Sum of physical latencies from slot s to each logical neighbor —
  /// the per-node quantity the PROP Var formula is built from. Memoised
  /// per slot on the mutation stamps of s's adjacency and of the hosts
  /// of s and its neighbours, so a repeat query after no relevant change
  /// costs one stamp pass and no oracle call; a miss sums the neighbour
  /// list in order, so both paths give the same bits. Updates the memo;
  /// call from the simulation thread only.
  double neighbor_latency_sum(SlotId s) const;

  /// Mean physical latency over all logical edges.
  double average_logical_link_latency() const;

  /// TTL-scoped random walk used by PROP to find an exchange counterpart.
  /// Clears `path` and fills it: path[0] == from, path[1] == first_hop,
  /// |path| == ttl + 1 unless the walk gets stuck (dead end with no
  /// unvisited neighbor); walks avoid revisiting nodes, mirroring the
  /// paper's repeated-forwarding guard. Returns false when the walk
  /// cannot reach the requested depth (`path` then holds the stuck
  /// prefix). A caller that reuses one `path` buffer walks without
  /// allocating once its capacity covers ttl + 1. Marks visited slots
  /// in scratch_marks() and collects each step's candidates in a
  /// per-overlay buffer; call from the simulation thread only.
  bool random_walk(SlotId from, SlotId first_hop, std::size_t ttl, Rng& rng,
                   std::vector<SlotId>& path) const;

  /// Per-overlay scratch slot set for logically const hot-path queries
  /// (random_walk's visited set, PROP-O's transferable-neighbour
  /// filter). Each user resets it on entry, so its contents are valid
  /// only until the next such call. Simulation thread only.
  SlotMarks& scratch_marks() const { return marks_; }

  /// Caller-owned scratch for flood_latencies_into / hop_distances_into:
  /// hot-loop callers (metric kernels, event-driven lookup resolution)
  /// reuse one of these instead of reallocating the distance vector and
  /// priority queue on every call. A default-constructed instance works
  /// for any overlay; buffers size themselves on first use.
  struct FloodScratch {
    std::vector<double> dist;
    std::vector<std::uint32_t> hops;
    std::vector<SlotId> frontier;
    std::vector<SlotId> next;
    IndexedPriorityQueue<double> queue{0};
  };

  /// Weighted single-source shortest latency over *logical* edges (each
  /// edge costs the physical latency between the slot hosts, plus the
  /// receiving slot's processing delay when provided). This is the
  /// first-response latency of an idealized flood, and the routing
  /// latency oracle for unstructured lookups. Inactive/unreachable slots
  /// get +infinity. `link_ok` (optional) prunes logical edges the flood
  /// may not traverse — e.g. links crossing a partitioned stub-domain
  /// gateway; slots cut off by the filter come back +infinity too.
  using LinkFilter = std::function<bool(SlotId from, SlotId to)>;
  std::vector<double> flood_latencies(
      SlotId source, const std::vector<double>* processing_delay_ms = nullptr,
      const LinkFilter* link_ok = nullptr) const;

  /// flood_latencies into caller-owned scratch; the returned reference
  /// aliases scratch.dist and is valid until the next _into call.
  const std::vector<double>& flood_latencies_into(
      FloodScratch& scratch, SlotId source,
      const std::vector<double>* processing_delay_ms = nullptr,
      const LinkFilter* link_ok = nullptr) const;

  /// Hop-count BFS distances over logical edges, capped at max_hops
  /// (entries beyond the cap are UINT32_MAX).
  std::vector<std::uint32_t> hop_distances(SlotId source,
                                           std::uint32_t max_hops) const;

  /// hop_distances into caller-owned scratch; the returned reference
  /// aliases scratch.hops and is valid until the next _into call.
  const std::vector<std::uint32_t>& hop_distances_into(
      FloodScratch& scratch, SlotId source, std::uint32_t max_hops) const;

 private:
  LogicalGraph graph_;
  Placement placement_;
  const LatencyOracle* oracle_;
  TrafficCounter traffic_;
  obs::EventBus* trace_ = nullptr;
  /// neighbor_latency_sum's memo for one slot: the sum and the stamps it
  /// was computed under. kNoStamp never matches, so a fresh entry misses.
  struct SumMemo {
    std::uint64_t adjacency = kNoStamp;  // graph_.stamp(s)
    std::uint64_t hosts = kNoStamp;      // max placement stamp, s and N(s)
    double sum = 0.0;
  };

  // Mutable because their users are logically const queries.
  mutable SlotMarks marks_;
  mutable std::vector<SlotId> walk_candidates_;
  mutable std::vector<SumMemo> sum_memo_;
};

/// Total latency of a hop-by-hop route under the current placement (sum
/// of the physical latencies of consecutive hops, plus the per-slot
/// processing delay of every hop receiver when provided).
double path_latency(const OverlayNetwork& net, std::span<const SlotId> path,
                    const std::vector<double>* processing_delay_ms = nullptr);

}  // namespace propsim
