// Slot <-> host binding.
//
// A Placement is a partial bijection between overlay slots and physical
// hosts. PROP-G's "exchange all neighbors / swap positions" is exactly a
// transposition of this bijection, which is why the logical graph is
// provably untouched by it (Theorem 2 of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "overlay/logical_graph.h"
#include "overlay/mutation_stamp.h"
#include "topology/graph.h"

namespace propsim {

class Placement {
 public:
  Placement(std::size_t slot_capacity, std::size_t host_capacity)
      : host_of_(slot_capacity, kInvalidNode),
        slot_of_(host_capacity, kInvalidSlot),
        version_(next_mutation_stamp()) {}

  std::size_t slot_capacity() const { return host_of_.size(); }
  std::size_t host_capacity() const { return slot_of_.size(); }

  bool slot_bound(SlotId s) const {
    PROPSIM_DCHECK(s < host_of_.size());
    return host_of_[s] != kInvalidNode;
  }
  bool host_bound(NodeId h) const {
    PROPSIM_DCHECK(h < slot_of_.size());
    return slot_of_[h] != kInvalidSlot;
  }

  NodeId host_of(SlotId s) const {
    PROPSIM_DCHECK(slot_bound(s));
    return host_of_[s];
  }
  SlotId slot_of(NodeId h) const {
    PROPSIM_DCHECK(host_bound(h));
    return slot_of_[h];
  }

  /// The last mutation stamp (see mutation_stamp.h) any mutator drew, so
  /// an unchanged version means an unchanged binding.
  std::uint64_t version() const { return version_; }

  /// Grows capacity when slots are added after construction.
  void ensure_slot_capacity(std::size_t slots) {
    if (slots > host_of_.size()) {
      host_of_.resize(slots, kInvalidNode);
      next_stamp();
    }
  }

  /// Binds a free slot to a free host.
  void bind(SlotId s, NodeId h);

  /// Releases a bound slot (departing peer).
  void unbind(SlotId s);

  /// Swaps the hosts of two bound slots — the PROP-G primitive.
  void swap_slots(SlotId a, SlotId b);

  /// Number of currently bound slots.
  std::size_t bound_count() const { return bound_count_; }

  /// Hosts of all bound slots, ordered by slot id.
  std::vector<NodeId> bound_hosts() const;

 private:
  /// Draws a stamp and makes it the placement's version.
  std::uint64_t next_stamp() { return version_ = next_mutation_stamp(); }

  std::vector<NodeId> host_of_;
  std::vector<SlotId> slot_of_;
  std::uint64_t version_ = kNoStamp;
  std::size_t bound_count_ = 0;
};

}  // namespace propsim
