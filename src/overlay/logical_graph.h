// Mutable logical (application-level) overlay graph.
//
// Vertices are *slots* — positions in the overlay — kept distinct from the
// physical hosts occupying them (see Placement). PROP-G permutes hosts
// across slots without touching this graph; PROP-O and the LTM baseline
// edit edges here.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "overlay/mutation_stamp.h"

namespace propsim {

using SlotId = std::uint32_t;
constexpr SlotId kInvalidSlot = static_cast<SlotId>(-1);

class LogicalGraph {
 public:
  LogicalGraph() = default;
  explicit LogicalGraph(std::size_t slot_count)
      : adjacency_(slot_count), active_(slot_count, true),
        version_(next_mutation_stamp()), membership_version_(version_),
        active_count_(slot_count) {}

  std::size_t slot_count() const { return adjacency_.size(); }
  std::size_t active_count() const { return active_count_; }
  std::size_t edge_count() const { return edge_count_; }

  bool is_active(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return active_[s];
  }

  /// Adds a fresh, active, isolated slot.
  SlotId add_slot();

  /// Removes every incident edge and marks the slot inactive (a departed
  /// peer). The id is never reused.
  void deactivate_slot(SlotId s);

  /// Re-marks an inactive slot active (a rejoining peer); it starts
  /// isolated.
  void reactivate_slot(SlotId s);

  void add_edge(SlotId a, SlotId b);
  /// Removes edge a—b; requires it to exist. Each list drops its entry
  /// by moving its last entry into the freed position; returns the
  /// freed positions in a's and b's lists, so a caller keeping rows
  /// parallel to the lists can mirror the move.
  std::pair<std::size_t, std::size_t> remove_edge(SlotId a, SlotId b);
  bool has_edge(SlotId a, SlotId b) const;

  std::span<const SlotId> neighbors(SlotId s) const {
    PROPSIM_DCHECK(s < adjacency_.size());
    return adjacency_[s];
  }

  std::size_t degree(SlotId s) const { return neighbors(s).size(); }

  /// The last mutation stamp (see mutation_stamp.h) any mutator drew,
  /// activity changes included, so an unchanged version means an
  /// unchanged graph.
  std::uint64_t version() const { return version_; }

  /// The stamp of the last change to which slots are active (add_slot,
  /// deactivate_slot, reactivate_slot); edge edits leave it, so an
  /// unchanged membership version means an unchanged active_slots().
  std::uint64_t membership_version() const { return membership_version_; }

  /// Minimum degree over active slots (the paper's delta(G), the default
  /// exchange size m for PROP-O).
  std::size_t min_active_degree() const;
  double average_active_degree() const;

  /// True if all active slots are mutually reachable.
  bool active_subgraph_connected() const;

  /// Sorted degree multiset of active slots; invariant under PROP-O.
  std::vector<std::size_t> degree_multiset() const;

  /// Active slot ids in increasing order.
  std::vector<SlotId> active_slots() const;

 private:
  std::size_t erase_directed(SlotId from, SlotId to);
  /// Draws a stamp and makes it the graph's version.
  std::uint64_t next_stamp() { return version_ = next_mutation_stamp(); }
  /// next_stamp() for a membership change: moves both versions.
  void next_membership_stamp() { membership_version_ = next_stamp(); }

  std::vector<std::vector<SlotId>> adjacency_;
  std::vector<bool> active_;
  std::uint64_t version_ = kNoStamp;
  std::uint64_t membership_version_ = kNoStamp;
  std::size_t active_count_ = 0;
  std::size_t edge_count_ = 0;
};

/// One graph's active_slots(), refilled only when its
/// membership_version() moved. A draw that indexes the active list by
/// position reads the same slot through it, without building an O(n)
/// vector per draw. Simulation thread only.
class ActiveSlotCache {
 public:
  std::span<const SlotId> of(const LogicalGraph& graph) {
    if (version_ != graph.membership_version()) {
      slots_.clear();
      for (SlotId s = 0; s < graph.slot_count(); ++s) {
        if (graph.is_active(s)) slots_.push_back(s);
      }
      version_ = graph.membership_version();
    }
    return slots_;
  }

 private:
  std::vector<SlotId> slots_;
  std::uint64_t version_ = kNoStamp;  // an empty graph has no active slot
};

}  // namespace propsim
