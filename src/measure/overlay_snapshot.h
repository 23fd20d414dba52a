// Immutable CSR snapshot of an overlay for measurement sweeps.
//
// Metric evaluation runs one full Dijkstra per sampled query source and
// repeats the whole sweep at every convergence-snapshot interval.
// Walking the mutable overlay from worker threads would race with
// nothing today (the sim is paused during a sample) but couples the
// sweep to live state. OverlaySnapshot freezes everything a sweep needs
// — adjacency in compressed-sparse-row form (the CsrGraph pattern the
// latency oracle already uses), the active-slot mask and the overlay's
// stored latency of every directed logical edge — in one O(V + E)
// capture that probes nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "overlay/overlay_network.h"

namespace propsim {

class OverlaySnapshot {
 public:
  OverlaySnapshot() = default;

  /// Captures the overlay's current state. Neighbor order is preserved
  /// exactly as the live graph iterates it, so a Dijkstra over the
  /// snapshot relaxes edges in the same order as one over the live
  /// overlay and produces bit-identical distances. `link_ok` (e.g. the
  /// fault plan's partition filter) prunes directed logical edges at
  /// capture time: a pruned edge simply does not exist in the snapshot,
  /// matching a flood that skips it at relax time.
  static OverlaySnapshot capture(
      const OverlayNetwork& net,
      const OverlayNetwork::LinkFilter* link_ok = nullptr);

  /// Builds a snapshot from CSR rows: slot s's edges are
  /// targets[offsets[s] .. offsets[s + 1]) with the parallel
  /// latencies_ms, each >= 0 (+inf allowed, NaN not). For graphs no
  /// OverlayNetwork holds, such as kernel tests that need edge weights
  /// a physical topology never produces (zero, +inf).
  static OverlaySnapshot from_csr(std::vector<std::uint8_t> active,
                                  std::vector<std::size_t> offsets,
                                  std::vector<SlotId> targets,
                                  std::vector<double> latencies_ms);

  std::size_t slot_count() const { return active_.size(); }
  /// Directed (half-)edge count after filtering.
  std::size_t edge_count() const { return targets_.size(); }

  bool is_active(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return active_[s] != 0;
  }

  std::span<const SlotId> targets(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return {targets_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// Physical latency of each edge in targets(s), same order (ms).
  std::span<const double> latencies(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return {latency_ms_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// Smallest edge latency in the snapshot (ms; +inf when there are no
  /// edges). flood_snapshot sizes its buckets from this.
  double min_edge_ms() const { return min_edge_ms_; }

  /// Equal when every row, edge latency and active flag is equal.
  bool operator==(const OverlaySnapshot&) const = default;

 private:
  std::vector<std::size_t> offsets_;  // slot_count + 1 row starts
  std::vector<SlotId> targets_;
  std::vector<double> latency_ms_;
  std::vector<std::uint8_t> active_;
  double min_edge_ms_ = std::numeric_limits<double>::infinity();
};

}  // namespace propsim
