#include "pastry/pastry.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace propsim {

PastryNetwork::PastryNetwork(std::vector<DhtId> ids) : ids_(std::move(ids)) {
  PROPSIM_CHECK(ids_.size() >= 2);
  build_ring();
  // apply_proximity() re-ranks by latency.
  tables_ = prefix_tables(ids_, kInvalidSlot, id_ring_rank(ids_),
                          std::less<>{});
}

PastryNetwork PastryNetwork::build_random(std::size_t slot_count, Rng& rng) {
  return PastryNetwork(draw_distinct_ids(slot_count, rng));
}

PastryNetwork PastryNetwork::build_with_ids(std::vector<DhtId> ids) {
  check_distinct_ids(ids);
  return PastryNetwork(std::move(ids));
}

void PastryNetwork::build_ring() {
  const std::size_t n = ids_.size();
  ring_order_.resize(n);
  std::iota(ring_order_.begin(), ring_order_.end(), SlotId{0});
  std::sort(ring_order_.begin(), ring_order_.end(),
            [&](SlotId a, SlotId b) { return ids_[a] < ids_[b]; });
  ring_pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ring_pos_[ring_order_[i]] = i;

  // Leaf sets: kLeafSetHalf ring neighbors on each side (the whole
  // ring for tiny networks).
  const std::size_t half = std::min(kLeafSetHalf, (n - 1) / 2);
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
}

SlotId PastryNetwork::owner_of(DhtId key) const {
  // Nearest id on the ring: check the two candidates around the key's
  // insertion point in ring order.
  const auto it = std::lower_bound(
      ring_order_.begin(), ring_order_.end(), key,
      [&](SlotId s, DhtId k) { return ids_[s] < k; });
  const std::size_t n = ring_order_.size();
  const std::size_t hi_pos =
      (it == ring_order_.end()) ? 0
                                : static_cast<std::size_t>(
                                      it - ring_order_.begin());
  const std::size_t lo_pos = (hi_pos + n - 1) % n;
  const SlotId hi = ring_order_[hi_pos];
  const SlotId lo = ring_order_[lo_pos];
  const DhtId dh = id_ring_distance(ids_[hi], key);
  const DhtId dl = id_ring_distance(ids_[lo], key);
  if (dh != dl) return dh < dl ? hi : lo;
  return ids_[hi] < ids_[lo] ? hi : lo;
}

SlotId PastryNetwork::table_entry(SlotId s, std::size_t row,
                                  std::size_t col) const {
  PROPSIM_DCHECK(s < ids_.size());
  PROPSIM_DCHECK(row < kHexDigits && col < kHexBase);
  return tables_[s][hex_cell(row, col)];
}

std::vector<SlotId> PastryNetwork::lookup_path(SlotId source,
                                               DhtId key) const {
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
      const std::size_t shared = hex_shared_prefix(ids_[here], key);
      next = tables_[here][hex_cell(shared, hex_digit(key, shared))];
      if (next == kInvalidSlot) {
        // Rare case: no entry — forward to a known node at least as
        // prefix-matched and strictly ring-closer to the key; if the
        // prefix constraint cannot be met (the key sits on a digit
        // boundary, e.g. 0x7FF.. vs 0x800..), fall back to pure ring
        // greed, which the leaf set always satisfies: the ring neighbor
        // toward the key is strictly closer unless it *is* the owner,
        // and that case was handled above.
        const DhtId here_dist = id_ring_distance(ids_[here], key);
        auto consider = [&](SlotId cand, bool require_prefix) {
          if (cand == kInvalidSlot || cand == here) return;
          if (require_prefix &&
              hex_shared_prefix(ids_[cand], key) < shared) {
            return;
          }
          const DhtId d = id_ring_distance(ids_[cand], key);
          if (d >= here_dist) return;
          if (next == kInvalidSlot || d < id_ring_distance(ids_[next], key)) {
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
  tables_ = prefix_tables(
      ids_, kInvalidSlot,
      [&](SlotId s, SlotId t) { return oracle.latency(hosts[s], hosts[t]); },
      std::less<>{});
}

OverlayNetwork make_pastry_overlay(const PastryNetwork& pastry,
                                   std::span<const NodeId> hosts,
                                   const LatencyOracle& oracle,
                                   obs::EventBus* trace) {
  PROPSIM_CHECK(hosts.size() == pastry.size());
  return bind_overlay(pastry.to_logical_graph(), hosts, oracle, trace);
}

}  // namespace propsim
