// Mutation stamps: a process-wide, strictly increasing clock that
// LogicalGraph and Placement draw their versions from.
#pragma once

#include <atomic>
#include <cstdint>

namespace propsim {

/// Stamp meaning "never drawn": next_mutation_stamp() never returns it,
/// so it is the version of a default-constructed object only.
constexpr std::uint64_t kNoStamp = 0;

/// Returns a stamp larger than every stamp returned before, in any
/// thread. The clock is shared by every object, not kept per object:
/// copies and assignments carry stamps between objects, and only a
/// process-wide clock makes an equal stamp mean the same mutation, so
/// that equal stamps imply equal state however an object got its
/// state. Relaxed ordering suffices: each object is used by one thread
/// at a time, and the atomic alone makes the values unique and
/// increasing in each thread's view.
inline std::uint64_t next_mutation_stamp() {
  static std::atomic<std::uint64_t> clock{kNoStamp};
  return clock.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace propsim
