#include "tapestry/tapestry.h"

#include <functional>
#include <numeric>

namespace propsim {

TapestryNetwork::TapestryNetwork(std::vector<DhtId> ids)
    : ids_(std::move(ids)) {
  PROPSIM_CHECK(ids_.size() >= 2);
  // apply_proximity() re-ranks by latency.
  tables_ = prefix_tables(ids_, kInvalidSlot, id_ring_rank(ids_),
                          std::less_equal<>{});
}

TapestryNetwork TapestryNetwork::build_random(std::size_t slot_count,
                                              Rng& rng) {
  return TapestryNetwork(draw_distinct_ids(slot_count, rng));
}

TapestryNetwork TapestryNetwork::build_with_ids(std::vector<DhtId> ids) {
  check_distinct_ids(ids);
  return TapestryNetwork(std::move(ids));
}

SlotId TapestryNetwork::table_entry(SlotId s, std::size_t level,
                                    std::size_t digit) const {
  PROPSIM_DCHECK(s < ids_.size());
  PROPSIM_DCHECK(level < kHexDigits && digit < kHexBase);
  return tables_[s][hex_cell(level, digit)];
}

SlotId TapestryNetwork::root_of(DhtId key) const {
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
                                                 DhtId key) const {
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
    for (const SlotId t : tables_[s]) {
      if (t != kInvalidSlot && !g.has_edge(s, t)) g.add_edge(s, t);
    }
  }
  return g;
}

void TapestryNetwork::apply_proximity(std::span<const NodeId> hosts,
                                      const LatencyOracle& oracle) {
  PROPSIM_CHECK(hosts.size() == ids_.size());
  tables_ = prefix_tables(
      ids_, kInvalidSlot,
      [&](SlotId s, SlotId t) { return oracle.latency(hosts[s], hosts[t]); },
      std::less_equal<>{});
}

OverlayNetwork make_tapestry_overlay(const TapestryNetwork& tapestry,
                                     std::span<const NodeId> hosts,
                                     const LatencyOracle& oracle,
                                     obs::EventBus* trace) {
  PROPSIM_CHECK(hosts.size() == tapestry.size());
  return bind_overlay(tapestry.to_logical_graph(), hosts, oracle, trace);
}

}  // namespace propsim
