#include "tapestry/tapestry.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace propsim {

TapestryNetwork::TapestryNetwork(std::vector<TapestryId> ids,
                                 const TapestryConfig& config)
    : config_(config), ids_(std::move(ids)) {
  PROPSIM_CHECK(ids_.size() >= 2);
  PROPSIM_CHECK(config_.entries_per_cell >= 1);
  rebuild_tables();
}

TapestryNetwork TapestryNetwork::build_random(std::size_t slot_count,
                                              const TapestryConfig& config,
                                              Rng& rng) {
  PROPSIM_CHECK(slot_count >= 2);
  // det-ok(D1): duplicate-id probe only; ids are emitted via the vector
  std::unordered_set<TapestryId> seen;
  std::vector<TapestryId> ids;
  ids.reserve(slot_count);
  while (ids.size() < slot_count) {
    const TapestryId id = rng.next();
    if (seen.insert(id).second) ids.push_back(id);
  }
  return TapestryNetwork(std::move(ids), config);
}

TapestryNetwork TapestryNetwork::build_with_ids(std::vector<TapestryId> ids,
                                                const TapestryConfig& config) {
  std::vector<TapestryId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  PROPSIM_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  return TapestryNetwork(std::move(ids), config);
}

void TapestryNetwork::rebuild_tables() {
  const std::size_t n = ids_.size();
  tables_.assign(n, std::vector<std::vector<SlotId>>(kHexDigits * kHexBase));
  // One pass over ordered pairs; candidate t lands in s's cell
  // (shared, digit_t). Primary = id-ring-nearest (deterministic,
  // proximity-neutral); apply_proximity() re-ranks by latency.
  for (SlotId s = 0; s < n; ++s) {
    auto& table = tables_[s];
    for (SlotId t = 0; t < n; ++t) {
      if (t == s) continue;
      const std::size_t level = hex_shared_prefix(ids_[s], ids_[t]);
      auto& cell = table[cell_index(level, hex_digit(ids_[t], level))];
      // Keep the entries_per_cell nearest by ring distance, sorted.
      const auto rank = [&](SlotId x) {
        return id_ring_distance(ids_[x], ids_[s]);
      };
      auto pos = std::lower_bound(
          cell.begin(), cell.end(), t,
          [&](SlotId a, SlotId b) { return rank(a) < rank(b); });
      cell.insert(pos, t);
      if (cell.size() > config_.entries_per_cell) cell.pop_back();
    }
  }
}

SlotId TapestryNetwork::table_entry(SlotId s, std::size_t level,
                                    std::size_t digit) const {
  PROPSIM_DCHECK(s < ids_.size());
  PROPSIM_DCHECK(level < kHexDigits && digit < kHexBase);
  const auto& cell = tables_[s][cell_index(level, digit)];
  return cell.empty() ? kInvalidSlot : cell.front();
}

std::span<const SlotId> TapestryNetwork::cell(SlotId s, std::size_t level,
                                              std::size_t digit) const {
  return tables_[s][cell_index(level, digit)];
}

SlotId TapestryNetwork::root_of(TapestryId key) const {
  // Resolve digit by digit against the global prefix tree: at each
  // level pick the key's digit if its class is non-empty, else scan
  // upward mod 16 (surrogate routing). The choice depends only on the
  // key and the id set, so the root is source-independent.
  std::vector<SlotId> candidates(ids_.size());
  std::iota(candidates.begin(), candidates.end(), SlotId{0});
  std::vector<SlotId> next;
  for (std::size_t level = 0; level < kHexDigits; ++level) {
    if (candidates.size() == 1) return candidates.front();
    const std::uint32_t desired = hex_digit(key, level);
    for (std::uint32_t probe = 0; probe < kHexBase; ++probe) {
      const std::uint32_t d = (desired + probe) % kHexBase;
      next.clear();
      for (const SlotId c : candidates) {
        if (hex_digit(ids_[c], level) == d) next.push_back(c);
      }
      if (!next.empty()) break;
    }
    candidates.swap(next);
    PROPSIM_CHECK(!candidates.empty());
  }
  PROPSIM_CHECK(candidates.size() == 1);  // ids are distinct
  return candidates.front();
}

std::vector<SlotId> TapestryNetwork::lookup_path(SlotId source,
                                                 TapestryId key) const {
  PROPSIM_CHECK(source < ids_.size());
  std::vector<SlotId> path{source};
  SlotId here = source;
  // Invariant: entering level h, `here` matches the resolved prefix of
  // length h, so its level-h table row describes exactly the nodes
  // sharing that prefix — the local surrogate scan agrees with the
  // global one in root_of().
  for (std::size_t level = 0; level < kHexDigits; ++level) {
    const std::uint32_t desired = hex_digit(key, level);
    const std::uint32_t own = hex_digit(ids_[here], level);
    bool advanced = false;
    for (std::uint32_t probe = 0; probe < kHexBase; ++probe) {
      const std::uint32_t d = (desired + probe) % kHexBase;
      if (d == own) {
        advanced = true;  // resolved in place, no hop
        break;
      }
      const SlotId next = table_entry(here, level, d);
      if (next != kInvalidSlot) {
        here = next;
        path.push_back(here);
        advanced = true;
        break;
      }
    }
    PROPSIM_CHECK(advanced);  // the node's own digit always matches
  }
  return path;
}

LogicalGraph TapestryNetwork::to_logical_graph() const {
  const std::size_t n = ids_.size();
  LogicalGraph g(n);
  for (SlotId s = 0; s < n; ++s) {
    for (const auto& cell : tables_[s]) {
      for (const SlotId t : cell) {
        if (t != s && !g.has_edge(s, t)) g.add_edge(s, t);
      }
    }
  }
  return g;
}

void TapestryNetwork::apply_proximity(std::span<const NodeId> hosts,
                                      const LatencyOracle& oracle) {
  PROPSIM_CHECK(hosts.size() == ids_.size());
  const std::size_t n = ids_.size();
  for (SlotId s = 0; s < n; ++s) {
    auto& table = tables_[s];
    for (auto& cell : table) cell.clear();
    for (SlotId t = 0; t < n; ++t) {
      if (t == s) continue;
      const std::size_t level = hex_shared_prefix(ids_[s], ids_[t]);
      auto& cell = table[cell_index(level, hex_digit(ids_[t], level))];
      const auto rank = [&](SlotId x) {
        return oracle.latency(hosts[s], hosts[x]);
      };
      auto pos = std::lower_bound(
          cell.begin(), cell.end(), t,
          [&](SlotId a, SlotId b) { return rank(a) < rank(b); });
      cell.insert(pos, t);
      if (cell.size() > config_.entries_per_cell) cell.pop_back();
    }
  }
}

OverlayNetwork make_tapestry_overlay(const TapestryNetwork& tapestry,
                                     std::span<const NodeId> hosts,
                                     const LatencyOracle& oracle,
                                     obs::EventBus* trace) {
  PROPSIM_CHECK(hosts.size() == tapestry.size());
  return bind_overlay(tapestry.to_logical_graph(), hosts, oracle, trace);
}

}  // namespace propsim
