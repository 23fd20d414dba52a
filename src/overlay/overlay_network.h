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
  /// `oracle` must outlive the overlay. Every slot with a neighbour must
  /// be bound to a host: construction prices each directed edge.
  OverlayNetwork(LogicalGraph graph, Placement placement,
                 const LatencyOracle& oracle);

  /// Read-only views; the overlay changes only through the mutators
  /// below, which keep the stored edge weights in step.
  const LogicalGraph& graph() const { return graph_; }
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

  // Mutators: the only writers of the overlay's graph and placement.
  // Each moves version() and re-prices the stored weights it touches.

  /// Adds logical edge a—b between two active, bound slots.
  void add_edge(SlotId a, SlotId b);
  /// Removes logical edge a—b; requires it to exist.
  void remove_edge(SlotId a, SlotId b);
  /// Swaps the hosts of two bound slots (the PROP-G exchange); re-prices
  /// the 2 (deg a + deg b) weights on their edges.
  void swap_hosts(SlotId a, SlotId b);
  /// A peer on free `host` joins as a fresh, isolated slot; returns it.
  SlotId join(NodeId host);
  /// Slot s departs, gracefully or by crash: its edges go (last
  /// neighbour first), the slot turns inactive and its host is
  /// released. Returns the host.
  NodeId leave(SlotId s);
  /// A departed slot comes back, isolated, on free `host`.
  void rejoin(SlotId s, NodeId host);

  /// Physical latency between the hosts occupying two slots (ms).
  double slot_latency(SlotId a, SlotId b) const {
    if (a == b) return 0.0;
    return oracle_->latency(placement_.host_of(a), placement_.host_of(b));
  }

  /// Stored weight of each of slot s's edges, parallel to
  /// graph().neighbors(s): entry i is slot_latency(s, neighbors(s)[i]),
  /// the same double a probe returns.
  std::span<const double> neighbor_latencies(SlotId s) const {
    PROPSIM_DCHECK(s < weights_.size());
    return weights_[s];
  }

  /// A lower bound on every stored weight: the lightest physical link,
  /// which any route between two distinct hosts crosses at least once.
  double min_link_latency() const { return min_link_ms_; }

  /// Sum of physical latencies from slot s to each logical neighbor —
  /// the per-node quantity the PROP Var formula is built from. Sums the
  /// stored weights in neighbour order, the additions a probing loop
  /// makes, so the same bits.
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

  /// Caller-owned scratch for flood_latencies_into: a caller that floods
  /// many sources (the paranoid lookup cross-check, the tests) reuses
  /// one of these instead of reallocating the distance vector and
  /// priority queue on every call. A default-constructed instance works
  /// for any overlay; buffers size themselves on first use.
  struct FloodScratch {
    std::vector<double> dist;
    IndexedPriorityQueue<double> queue{0};
  };

  /// The reference flood: a binary-heap Dijkstra giving the weighted
  /// single-source shortest latency over *logical* edges (each edge
  /// costs the physical latency between the slot hosts, plus the
  /// receiving slot's processing delay when provided). This is the
  /// first-response latency of an idealized flood, and the routing
  /// latency oracle for unstructured lookups; metric sweeps run the
  /// bit-identical bucket kernel of MeasureEngine instead. Inactive or
  /// unreachable slots get +infinity. `link_ok` (optional) prunes
  /// logical edges the flood may not traverse — e.g. links crossing a
  /// partitioned stub-domain gateway; slots cut off by the filter come
  /// back +infinity too. The returned reference aliases scratch.dist
  /// and is valid until the next call with the same scratch.
  using LinkFilter = std::function<bool(SlotId from, SlotId to)>;
  const std::vector<double>& flood_latencies_into(
      FloodScratch& scratch, SlotId source,
      const std::vector<double>* processing_delay_ms = nullptr,
      const LinkFilter* link_ok = nullptr) const;

 private:
  /// Re-prices slot s's row and the entry for s in each neighbour's row.
  void reprice(SlotId s);
  /// Paranoid builds: aborts unless every weight in s's row equals a
  /// fresh probe bit for bit. No-op otherwise.
  void audit_row(SlotId s) const;

  LogicalGraph graph_;
  Placement placement_;
  const LatencyOracle* oracle_;
  TrafficCounter traffic_;
  obs::EventBus* trace_ = nullptr;
  /// weights_[s][i] prices graph_.neighbors(s)[i]; each row is sized
  /// exactly at construction and follows its adjacency list's pushes
  /// and swap-and-pop erases.
  std::vector<std::vector<double>> weights_;
  double min_link_ms_ = 0.0;

  // Mutable because their users are logically const queries.
  mutable SlotMarks marks_;
  mutable std::vector<SlotId> walk_candidates_;
};

/// Total latency of a hop-by-hop route under the current placement (sum
/// of the physical latencies of consecutive hops, plus the per-slot
/// processing delay of every hop receiver when provided).
double path_latency(const OverlayNetwork& net, std::span<const SlotId> path,
                    const std::vector<double>* processing_delay_ms = nullptr);

/// The one overlay binder every builder ends in: slot i goes to
/// hosts[i] (one host per slot of `graph`), the overlay is built over
/// `oracle`, and `trace` (may be null) becomes its bus and sees one
/// kJoin per active slot, in active-slot order.
OverlayNetwork bind_overlay(LogicalGraph graph, std::span<const NodeId> hosts,
                            const LatencyOracle& oracle, obs::EventBus* trace);

}  // namespace propsim
