// SlotMarks: a reusable set of slot ids with O(1) insert, membership and
// clear, for hot loops that need a per-call "seen" or "excluded" set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "overlay/logical_graph.h"

namespace propsim {

/// Epoch-stamped marks: a slot is in the set iff its stamp equals the
/// current epoch, so reset() empties the set by bumping the epoch
/// instead of touching every slot (a full wipe happens only on resize
/// and once per 2^32 resets).
class SlotMarks {
 public:
  /// Empties the set and sizes it for slots [0, slot_count).
  void reset(std::size_t slot_count) {
    if (stamp_.size() != slot_count) {
      stamp_.assign(slot_count, 0);
      epoch_ = 0;
    }
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  void insert(SlotId s) { stamp_[s] = epoch_; }
  bool contains(SlotId s) const { return stamp_[s] == epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

}  // namespace propsim
