// Pastry DHT over overlay slots (Rowstron & Druschel, Middleware 2001).
//
// 64-bit identifiers interpreted as 16 hexadecimal digits (b = 4).
// Each slot keeps a routing table (row r, column c: some node sharing an
// r-digit prefix whose next digit is c), a leaf set of the L/2
// numerically nearest ids on each side, and routes by prefix matching
// with the leaf set as the final step.
//
// As with Chord and CAN, the structure lives on *slots*; PROP-G swaps
// the hosts bound to two slots, which is exactly Pastry peers trading
// nodeIds. The optional proximity-aware table fill (Castro et al.,
// "Exploiting network proximity in peer-to-peer overlay networks") picks
// the physically nearest candidate per routing-table cell — the PNS
// analogue the paper groups under proximity neighbor selection.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/id_space.h"
#include "common/rng.h"
#include "overlay/logical_graph.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"

namespace propsim {

class PastryNetwork {
 public:
  /// Leaf-set size L/2: ring neighbors kept on each side.
  static constexpr std::size_t kLeafSetHalf = 4;

  /// Random distinct ids over `slot_count` slots.
  static PastryNetwork build_random(std::size_t slot_count, Rng& rng);

  /// Caller-chosen distinct ids (landmark-binned ids, tests).
  static PastryNetwork build_with_ids(std::vector<DhtId> ids);

  std::size_t size() const { return ids_.size(); }
  DhtId id_of(SlotId s) const { return ids_[s]; }

  /// Ground truth: the slot numerically closest to `key` on the ring
  /// (ties broken toward the lower id).
  SlotId owner_of(DhtId key) const;

  /// Routing-table entry for (row, col); kInvalidSlot when empty.
  SlotId table_entry(SlotId s, std::size_t row, std::size_t col) const;

  /// The leaf set of a slot: the kLeafSetHalf nearest ids on either
  /// side, by ring order (the whole ring for tiny networks).
  std::span<const SlotId> leaf_set(SlotId s) const { return leaves_[s]; }

  /// Prefix routing from `source` toward `key`; the path ends at
  /// owner_of(key). Each hop either lengthens the shared prefix or
  /// (within the leaf set) jumps straight to the numerically closest
  /// node.
  std::vector<SlotId> lookup_path(SlotId source, DhtId key) const;

  /// Routing-state links (table entries + leaf sets) as an undirected
  /// logical graph — the neighbor set PROP operates on.
  LogicalGraph to_logical_graph() const;

  /// Refills every routing-table cell with the physically nearest
  /// candidate among the nodes eligible for that cell (Castro et al.'s
  /// proximity-aware Pastry); of equally near candidates the lowest slot
  /// wins. Leaf sets are constrained by id order and stay as they are.
  void apply_proximity(std::span<const NodeId> hosts,
                       const LatencyOracle& oracle);

 private:
  explicit PastryNetwork(std::vector<DhtId> ids);

  /// Ring order and leaf sets.
  void build_ring();

  std::vector<DhtId> ids_;
  std::vector<SlotId> ring_order_;     // slots sorted by id
  std::vector<std::size_t> ring_pos_;  // slot -> position in ring_order_
  /// tables_[s][hex_cell(row, col)]; the earlier candidate keeps a tie.
  std::vector<std::vector<SlotId>> tables_;
  std::vector<std::vector<SlotId>> leaves_;
};

/// OverlayNetwork over a Pastry network: slot i bound to hosts[i].
OverlayNetwork make_pastry_overlay(const PastryNetwork& pastry,
                                   std::span<const NodeId> hosts,
                                   const LatencyOracle& oracle,
                                   obs::EventBus* trace = nullptr);

}  // namespace propsim
