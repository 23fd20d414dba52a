#include "pastry/pastry.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace propsim {

PastryNetwork::PastryNetwork(std::vector<PastryId> ids,
                             const PastryConfig& config)
    : config_(config), ids_(std::move(ids)) {
  PROPSIM_CHECK(ids_.size() >= 2);
  PROPSIM_CHECK(config_.leaf_set_half >= 1);
  rebuild_tables();
}

PastryNetwork PastryNetwork::build_random(std::size_t slot_count,
                                          const PastryConfig& config,
                                          Rng& rng) {
  PROPSIM_CHECK(slot_count >= 2);
  // det-ok(D1): duplicate-id probe only; ids are emitted via the vector
  std::unordered_set<PastryId> seen;
  std::vector<PastryId> ids;
  ids.reserve(slot_count);
  while (ids.size() < slot_count) {
    const PastryId id = rng.next();
    if (seen.insert(id).second) ids.push_back(id);
  }
  return PastryNetwork(std::move(ids), config);
}

PastryNetwork PastryNetwork::build_with_ids(std::vector<PastryId> ids,
                                            const PastryConfig& config) {
  std::vector<PastryId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  PROPSIM_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  return PastryNetwork(std::move(ids), config);
}

void PastryNetwork::rebuild_tables() {
  const std::size_t n = ids_.size();
  ring_order_.resize(n);
  std::iota(ring_order_.begin(), ring_order_.end(), SlotId{0});
  std::sort(ring_order_.begin(), ring_order_.end(),
            [&](SlotId a, SlotId b) { return ids_[a] < ids_[b]; });
  ring_pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ring_pos_[ring_order_[i]] = i;

  // Leaf sets: leaf_set_half ring neighbors on each side (the whole
  // ring for tiny networks).
  const std::size_t half = std::min(config_.leaf_set_half, (n - 1) / 2);
  leaves_.assign(n, {});
  for (SlotId s = 0; s < n; ++s) {
    auto& set = leaves_[s];
    const std::size_t pos = ring_pos_[s];
    for (std::size_t k = 1; k <= half; ++k) {
      set.push_back(ring_order_[(pos + k) % n]);
      set.push_back(ring_order_[(pos + n - k) % n]);
    }
    if (half == 0 && n == 2) set.push_back(ring_order_[(pos + 1) % 2]);
  }

  // Routing tables: one pass over all ordered pairs; each candidate t
  // lands in cell (shared, digit_t); keep the candidate with the
  // smallest ring distance (deterministic, proximity-neutral).
  tables_.assign(n, std::vector<SlotId>(kPastryDigits * kPastryBase,
                                        kInvalidSlot));
  for (SlotId s = 0; s < n; ++s) {
    auto& table = tables_[s];
    for (SlotId t = 0; t < n; ++t) {
      if (t == s) continue;
      const std::size_t shared = shared_prefix_len(ids_[s], ids_[t]);
      if (shared == kPastryDigits) continue;  // impossible: distinct ids
      const std::size_t cell =
          shared * kPastryBase + pastry_digit(ids_[t], shared);
      const SlotId cur = table[cell];
      if (cur == kInvalidSlot ||
          ring_distance(ids_[t], ids_[s]) <
              ring_distance(ids_[cur], ids_[s])) {
        table[cell] = t;
      }
    }
  }
}

SlotId PastryNetwork::owner_of(PastryId key) const {
  // Nearest id on the ring: check the two candidates around the key's
  // insertion point in ring order.
  const auto it = std::lower_bound(
      ring_order_.begin(), ring_order_.end(), key,
      [&](SlotId s, PastryId k) { return ids_[s] < k; });
  const std::size_t n = ring_order_.size();
  const std::size_t hi_pos =
      (it == ring_order_.end()) ? 0
                                : static_cast<std::size_t>(
                                      it - ring_order_.begin());
  const std::size_t lo_pos = (hi_pos + n - 1) % n;
  const SlotId hi = ring_order_[hi_pos];
  const SlotId lo = ring_order_[lo_pos];
  const PastryId dh = ring_distance(ids_[hi], key);
  const PastryId dl = ring_distance(ids_[lo], key);
  if (dh != dl) return dh < dl ? hi : lo;
  return ids_[hi] < ids_[lo] ? hi : lo;
}

SlotId PastryNetwork::table_entry(SlotId s, std::size_t row,
                                  std::size_t col) const {
  PROPSIM_DCHECK(s < ids_.size());
  PROPSIM_DCHECK(row < kPastryDigits && col < kPastryBase);
  return tables_[s][row * kPastryBase + col];
}

std::vector<SlotId> PastryNetwork::lookup_path(SlotId source,
                                               PastryId key) const {
  PROPSIM_CHECK(source < ids_.size());
  const SlotId owner = owner_of(key);
  std::vector<SlotId> path{source};
  SlotId here = source;
  for (std::size_t guard = 0; here != owner; ++guard) {
    PROPSIM_CHECK(guard < 256);
    SlotId next = kInvalidSlot;

    // Leaf-set delivery: the owner within reach means one final hop.
    const auto& leaves = leaves_[here];
    if (std::find(leaves.begin(), leaves.end(), owner) != leaves.end()) {
      next = owner;
    } else {
      // Prefix step: the table cell for the key's next digit.
      const std::size_t shared = shared_prefix_len(ids_[here], key);
      next = tables_[here][shared * kPastryBase + pastry_digit(key, shared)];
      if (next == kInvalidSlot) {
        // Rare case: no entry — forward to a known node at least as
        // prefix-matched and strictly ring-closer to the key; if the
        // prefix constraint cannot be met (the key sits on a digit
        // boundary, e.g. 0x7FF.. vs 0x800..), fall back to pure ring
        // greed, which the leaf set always satisfies: the ring neighbor
        // toward the key is strictly closer unless it *is* the owner,
        // and that case was handled above.
        const PastryId here_dist = ring_distance(ids_[here], key);
        auto consider = [&](SlotId cand, bool require_prefix) {
          if (cand == kInvalidSlot || cand == here) return;
          if (require_prefix &&
              shared_prefix_len(ids_[cand], key) < shared) {
            return;
          }
          const PastryId d = ring_distance(ids_[cand], key);
          if (d >= here_dist) return;
          if (next == kInvalidSlot || d < ring_distance(ids_[next], key)) {
            next = cand;
          }
        };
        for (const bool require_prefix : {true, false}) {
          for (const SlotId leaf : leaves) consider(leaf, require_prefix);
          for (const SlotId entry : tables_[here]) {
            consider(entry, require_prefix);
          }
          if (next != kInvalidSlot) break;
        }
      }
    }
    // Globally consistent state guarantees progress until the owner.
    PROPSIM_CHECK(next != kInvalidSlot);
    here = next;
    path.push_back(here);
  }
  return path;
}

LogicalGraph PastryNetwork::to_logical_graph() const {
  const std::size_t n = ids_.size();
  LogicalGraph g(n);
  auto link = [&](SlotId a, SlotId b) {
    if (b != kInvalidSlot && a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  };
  for (SlotId s = 0; s < n; ++s) {
    for (const SlotId leaf : leaves_[s]) link(s, leaf);
    for (const SlotId entry : tables_[s]) link(s, entry);
  }
  return g;
}

void PastryNetwork::apply_proximity(std::span<const NodeId> hosts,
                                    const LatencyOracle& oracle) {
  PROPSIM_CHECK(hosts.size() == ids_.size());
  const std::size_t n = ids_.size();
  // Same single pass as rebuild_tables but the per-cell winner is the
  // physically nearest candidate instead of the id-nearest one.
  for (SlotId s = 0; s < n; ++s) {
    auto& table = tables_[s];
    std::fill(table.begin(), table.end(), kInvalidSlot);
    for (SlotId t = 0; t < n; ++t) {
      if (t == s) continue;
      const std::size_t shared = shared_prefix_len(ids_[s], ids_[t]);
      const std::size_t cell =
          shared * kPastryBase + pastry_digit(ids_[t], shared);
      const SlotId cur = table[cell];
      if (cur == kInvalidSlot ||
          oracle.latency(hosts[s], hosts[t]) <
              oracle.latency(hosts[s], hosts[cur])) {
        table[cell] = t;
      }
    }
  }
}

OverlayNetwork make_pastry_overlay(const PastryNetwork& pastry,
                                   std::span<const NodeId> hosts,
                                   const LatencyOracle& oracle,
                                   obs::EventBus* trace) {
  PROPSIM_CHECK(hosts.size() == pastry.size());
  return bind_overlay(pastry.to_logical_graph(), hosts, oracle, trace);
}

}  // namespace propsim
