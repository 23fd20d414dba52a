#include "chord/chord_ring.h"

#include <algorithm>
#include <numeric>

namespace propsim {

ChordRing::ChordRing(std::vector<DhtId> ids, const ChordConfig& config)
    : config_(config), ids_(std::move(ids)) {
  PROPSIM_CHECK(!ids_.empty());
  rebuild_tables();
}

ChordRing ChordRing::build_random(std::size_t slot_count,
                                  const ChordConfig& config, Rng& rng) {
  return ChordRing(draw_distinct_ids(slot_count, rng), config);
}

ChordRing ChordRing::build_with_ids(std::vector<DhtId> ids,
                                    const ChordConfig& config) {
  check_distinct_ids(ids);
  return ChordRing(std::move(ids), config);
}

void ChordRing::rebuild_tables() {
  const std::size_t n = ids_.size();
  ring_order_.resize(n);
  std::iota(ring_order_.begin(), ring_order_.end(), SlotId{0});
  std::sort(ring_order_.begin(), ring_order_.end(),
            [&](SlotId a, SlotId b) { return ids_[a] < ids_[b]; });
  ring_pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ring_pos_[ring_order_[i]] = i;
  }

  succ_.assign(n, {});
  const std::size_t list_len = std::min(kSuccessorList, n - 1);
  for (SlotId s = 0; s < n; ++s) {
    succ_[s].reserve(list_len);
    for (std::size_t k = 1; k <= list_len; ++k) {
      succ_[s].push_back(ring_successor(s, k));
    }
  }

  fingers_.assign(n, {});
  for (SlotId s = 0; s < n; ++s) {
    auto& table = fingers_[s];
    for (std::size_t k = 0; k < kDhtIdBits; ++k) {
      const DhtId point = ids_[s] + (DhtId{1} << k);
      const SlotId target = successor_of(point);
      if (target == s) continue;  // tiny rings: the point wraps to self
      if (std::find(table.begin(), table.end(), target) == table.end()) {
        table.push_back(target);
      }
    }
  }
}

SlotId ChordRing::successor_of(DhtId key) const {
  // First slot clockwise whose id >= key, wrapping to the smallest id.
  const auto it = std::lower_bound(
      ring_order_.begin(), ring_order_.end(), key,
      [&](SlotId s, DhtId k) { return ids_[s] < k; });
  if (it == ring_order_.end()) return ring_order_.front();
  return *it;
}

SlotId ChordRing::ring_successor(SlotId s, std::size_t steps) const {
  const std::size_t n = ring_order_.size();
  return ring_order_[(ring_pos_[s] + steps) % n];
}

SlotId ChordRing::ring_predecessor(SlotId s, std::size_t steps) const {
  const std::size_t n = ring_order_.size();
  return ring_order_[(ring_pos_[s] + n - (steps % n)) % n];
}

SlotId ChordRing::closest_preceding(SlotId u, DhtId key) const {
  // Scan fingers and successors for the id closest to (but before) key;
  // examining all table entries matches Chord's closest_preceding_finger
  // generalized to the whole routing table.
  SlotId best = kInvalidSlot;
  DhtId best_dist = 0;
  auto consider = [&](SlotId cand) {
    if (cand == u) return;
    if (!in_interval_oo(ids_[u], key, ids_[cand])) return;
    const DhtId dist = clockwise_distance(ids_[cand], key);
    if (best == kInvalidSlot || dist < best_dist) {
      best = cand;
      best_dist = dist;
    }
  };
  for (const SlotId f : fingers_[u]) consider(f);
  for (const SlotId s : succ_[u]) consider(s);
  return best;
}

std::vector<SlotId> ChordRing::lookup_path(SlotId source, DhtId key) const {
  PROPSIM_CHECK(source < ids_.size());
  const SlotId owner = successor_of(key);
  std::vector<SlotId> path{source};
  SlotId here = source;
  // 128 is far beyond any reachable hop count for a correct greedy walk;
  // the check guards against routing-table corruption.
  for (std::size_t guard = 0; here != owner; ++guard) {
    PROPSIM_CHECK(guard < 128);
    if (in_interval_oc(ids_[here], ids_[ring_successor(here)], key)) {
      here = ring_successor(here);
    } else {
      const SlotId next = closest_preceding(here, key);
      // The successor list always yields progress, so next is valid.
      PROPSIM_CHECK(next != kInvalidSlot);
      here = next;
    }
    path.push_back(here);
  }
  return path;
}

LogicalGraph ChordRing::to_logical_graph() const {
  const std::size_t n = ids_.size();
  LogicalGraph g(n);
  auto link = [&](SlotId a, SlotId b) {
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  };
  for (SlotId s = 0; s < n; ++s) {
    for (const SlotId f : fingers_[s]) link(s, f);
    for (const SlotId k : succ_[s]) link(s, k);
  }
  return g;
}

void ChordRing::apply_pns(std::span<const NodeId> hosts,
                          const LatencyOracle& oracle) {
  PROPSIM_CHECK(hosts.size() == ids_.size());
  PROPSIM_CHECK(config_.pns_candidates >= 1);
  const std::size_t n = ids_.size();
  for (SlotId s = 0; s < n; ++s) {
    auto& table = fingers_[s];
    table.clear();
    for (std::size_t k = 0; k < kDhtIdBits; ++k) {
      const DhtId point = ids_[s] + (DhtId{1} << k);
      // Candidates: the first pns_candidates slots clockwise from the
      // finger point; all of them own keys "near" the point, so any is a
      // legal finger. Pick the physically nearest.
      const SlotId first = successor_of(point);
      SlotId best = kInvalidSlot;
      double best_latency = 0.0;
      std::size_t pos = ring_pos_[first];
      for (std::size_t c = 0; c < config_.pns_candidates && c < n; ++c) {
        const SlotId cand = ring_order_[(pos + c) % n];
        if (cand == s) continue;
        // Candidates must stay within the half-ring of the finger point
        // so greedy routing still makes clockwise progress.
        if (!in_interval_oo(ids_[s], ids_[s] + (DhtId{1} << k) * 2,
                            ids_[cand]) &&
            c > 0) {
          break;
        }
        const double lat = oracle.latency(hosts[s], hosts[cand]);
        if (best == kInvalidSlot || lat < best_latency) {
          best = cand;
          best_latency = lat;
        }
      }
      if (best == kInvalidSlot) continue;
      if (std::find(table.begin(), table.end(), best) == table.end()) {
        table.push_back(best);
      }
    }
  }
}

OverlayNetwork make_chord_overlay(const ChordRing& ring,
                                  std::span<const NodeId> hosts,
                                  const LatencyOracle& oracle,
                                  obs::EventBus* trace) {
  PROPSIM_CHECK(hosts.size() == ring.size());
  return bind_overlay(ring.to_logical_graph(), hosts, oracle, trace);
}

}  // namespace propsim
