// The 64-bit identifier space of the DHT substrates (Chord, Pastry,
// Tapestry): modular ring intervals and distances, the hexadecimal-digit
// view the prefix-routing DHTs share (16 digits, base 16, digit 0 is the
// most significant), and the one distinct-id draw and check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace propsim {

using DhtId = std::uint64_t;

constexpr std::size_t kDhtIdBits = 64;

/// x in (a, b] on the ring. When a == b the interval is the full ring.
constexpr bool in_interval_oc(DhtId a, DhtId b, DhtId x) {
  if (a == b) return true;
  if (a < b) return x > a && x <= b;
  return x > a || x <= b;
}

/// x in (a, b) on the ring. When a == b the interval is the ring minus a.
constexpr bool in_interval_oo(DhtId a, DhtId b, DhtId x) {
  if (a == b) return x != a;
  if (a < b) return x > a && x < b;
  return x > a || x < b;
}

/// Clockwise distance from a to b (how far forward b lies from a).
constexpr DhtId clockwise_distance(DhtId a, DhtId b) {
  return b - a;  // modular arithmetic wraps exactly as required
}

/// Circular distance on the ring (min of both directions).
constexpr DhtId id_ring_distance(DhtId a, DhtId b) {
  const DhtId d = a - b;
  const DhtId e = b - a;
  return d < e ? d : e;
}

constexpr std::size_t kHexDigits = kDhtIdBits / 4;
constexpr std::size_t kHexBase = 16;

/// Digit d (0 = most significant) of an id.
constexpr std::uint32_t hex_digit(DhtId id, std::size_t d) {
  return static_cast<std::uint32_t>((id >> (4 * (kHexDigits - 1 - d))) & 0xF);
}

/// Length of the common hex-digit prefix of two ids (0..16).
constexpr std::size_t hex_shared_prefix(DhtId a, DhtId b) {
  std::size_t len = 0;
  while (len < kHexDigits && hex_digit(a, len) == hex_digit(b, len)) {
    ++len;
  }
  return len;
}

/// Prefix-routing table index of (shared-prefix row, next digit).
constexpr std::size_t hex_cell(std::size_t row, std::size_t digit) {
  return row * kHexBase + digit;
}

/// Routing-table cell in which a node with id `own` files the distinct
/// id `other`.
inline std::size_t prefix_cell(DhtId own, DhtId other) {
  const std::size_t shared = hex_shared_prefix(own, other);
  PROPSIM_DCHECK(shared < kHexDigits);
  return hex_cell(shared, hex_digit(other, shared));
}

/// Rank of candidate t for node s by id-ring distance: the
/// deterministic, proximity-neutral order a prefix DHT starts from.
inline auto id_ring_rank(const std::vector<DhtId>& ids) {
  return [&ids](std::size_t s, std::size_t t) {
    return id_ring_distance(ids[t], ids[s]);
  };
}

/// One prefix-routing table per id, indexed by hex_cell: each cell
/// holds the candidate of least rank(s, t) among the ids filed there
/// (prefix_cell), `empty` where none is. Candidates come in index
/// order; a later one replaces the kept one when
/// replaces(rank(s, t), rank(s, kept)), so the comparator is the tie
/// rule (std::less keeps the earlier, std::less_equal takes the later).
template <typename Slot, typename Rank, typename Replaces>
std::vector<std::vector<Slot>> prefix_tables(const std::vector<DhtId>& ids,
                                             Slot empty, Rank rank,
                                             Replaces replaces) {
  const std::size_t n = ids.size();
  std::vector<std::vector<Slot>> tables(
      n, std::vector<Slot>(kHexDigits * kHexBase, empty));
  for (Slot s = 0; s < n; ++s) {
    auto& table = tables[s];
    for (Slot t = 0; t < n; ++t) {
      if (t == s) continue;
      Slot& kept = table[prefix_cell(ids[s], ids[t])];
      if (kept == empty || replaces(rank(s, t), rank(s, kept))) kept = t;
    }
  }
  return tables;
}

/// `count` (>= 2) distinct ids drawn uniformly: successive rng.next()
/// values, repeats skipped.
inline std::vector<DhtId> draw_distinct_ids(std::size_t count, Rng& rng) {
  PROPSIM_CHECK(count >= 2);
  // det-ok(D1): duplicate-id probe only; ids are emitted via the vector
  std::unordered_set<DhtId> seen;
  std::vector<DhtId> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    const DhtId id = rng.next();
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

/// Check-fails unless the caller-chosen ids are pairwise distinct.
inline void check_distinct_ids(std::vector<DhtId> ids) {
  std::sort(ids.begin(), ids.end());
  PROPSIM_CHECK(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

}  // namespace propsim
