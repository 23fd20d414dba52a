// Chord distributed hash table over overlay slots.
//
// The ring is built over *slots*; the placement decides which physical
// host serves each slot. PROP-G's identifier exchange is then a placement
// swap — fingers, successor lists and the key->slot mapping never change,
// exactly matching the paper's "each node is only allowed to get old
// identifiers of other nodes".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/id_space.h"
#include "common/rng.h"
#include "overlay/logical_graph.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"

namespace propsim {

struct ChordConfig {
  /// Proximity Neighbor Selection: when > 1, each finger slot is the
  /// physically nearest of this many candidate ring positions after the
  /// finger point (the PNS baseline; 1 = plain Chord).
  std::size_t pns_candidates = 1;
};

class ChordRing {
 public:
  /// Successor-list length (fault tolerance and the final routing step);
  /// rings of at most this many slots list every other slot.
  static constexpr std::size_t kSuccessorList = 4;

  /// Random identifier assignment (plain Chord / PROP-G substrate).
  static ChordRing build_random(std::size_t slot_count,
                                const ChordConfig& config, Rng& rng);

  /// Caller-chosen identifiers (the PIS baseline assigns ids by landmark
  /// bins). Ids must be distinct.
  static ChordRing build_with_ids(std::vector<DhtId> ids,
                                  const ChordConfig& config);

  std::size_t size() const { return ids_.size(); }
  DhtId id_of(SlotId s) const { return ids_[s]; }

  /// Ground truth: the slot owning `key` (first id clockwise >= key).
  SlotId successor_of(DhtId key) const;

  /// Immediate ring successor / predecessor slots of a slot.
  SlotId ring_successor(SlotId s, std::size_t steps = 1) const;
  SlotId ring_predecessor(SlotId s, std::size_t steps = 1) const;

  std::span<const SlotId> fingers(SlotId s) const { return fingers_[s]; }
  std::span<const SlotId> successors(SlotId s) const { return succ_[s]; }

  /// Greedy iterative lookup from `source` for `key`; returns the slot
  /// sequence ending at the key's owner. Hop count is O(log n) w.h.p.
  std::vector<SlotId> lookup_path(SlotId source, DhtId key) const;

  /// Routing-table links as an undirected logical graph (fingers +
  /// successor lists + predecessor back-links, deduplicated) — the
  /// neighbor set PROP probes and exchanges over.
  LogicalGraph to_logical_graph() const;

  /// Recomputes fingers with Proximity Neighbor Selection against the
  /// given hosts (hosts[i] = physical node of slot i). Used by the PNS
  /// baseline after the plain ring is built.
  void apply_pns(std::span<const NodeId> hosts, const LatencyOracle& oracle);

  const ChordConfig& config() const { return config_; }

 private:
  ChordRing(std::vector<DhtId> ids, const ChordConfig& config);

  void rebuild_tables();
  SlotId closest_preceding(SlotId u, DhtId key) const;

  ChordConfig config_;
  std::vector<DhtId> ids_;             // by slot
  std::vector<SlotId> ring_order_;     // slots sorted by id
  std::vector<std::size_t> ring_pos_;  // slot -> index in ring_order_
  std::vector<std::vector<SlotId>> fingers_;  // by slot, deduplicated
  std::vector<std::vector<SlotId>> succ_;     // by slot
};

/// Builds the OverlayNetwork for a chord ring: logical graph from the
/// routing tables, slot i bound to hosts[i].
/// (Route latency helpers live in overlay/overlay_network.h.)
OverlayNetwork make_chord_overlay(const ChordRing& ring,
                                  std::span<const NodeId> hosts,
                                  const LatencyOracle& oracle,
                                  obs::EventBus* trace = nullptr);

}  // namespace propsim
