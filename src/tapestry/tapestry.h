// Tapestry DHT over overlay slots (Zhao et al., JSAC 2004; routing after
// Plaxton/Rajaraman/Richa).
//
// Like Pastry, Tapestry routes by resolving one hexadecimal digit of the
// key per hop through per-level neighbor tables; unlike Pastry there are
// no leaf sets — when the exact next-digit class is empty, deterministic
// *surrogate routing* substitutes the next non-empty digit (scanning
// upward mod 16), so every key maps to a unique root node that any
// source reaches. Tapestry's defining locality feature — each table
// entry is the physically closest eligible node — is available through
// apply_proximity().
//
// As with the other DHTs, identifiers live on *slots*: PROP-G's
// identifier exchange is a placement swap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/id_space.h"
#include "common/rng.h"
#include "overlay/logical_graph.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"

namespace propsim {

class TapestryNetwork {
 public:
  static TapestryNetwork build_random(std::size_t slot_count, Rng& rng);
  static TapestryNetwork build_with_ids(std::vector<DhtId> ids);

  std::size_t size() const { return ids_.size(); }
  DhtId id_of(SlotId s) const { return ids_[s]; }

  /// The unique root of `key` under surrogate routing: the digits of
  /// key are resolved one level at a time against the live prefix tree,
  /// each empty class replaced by the next non-empty digit upward
  /// (mod 16). Independent of any source node.
  SlotId root_of(DhtId key) const;

  /// Table entry for (level, digit); kInvalidSlot when the class is
  /// empty. (Entry shares exactly `level` digits with s and has `digit`
  /// at that position.)
  SlotId table_entry(SlotId s, std::size_t level, std::size_t digit) const;

  /// Routes from `source` toward `key`: at most one hop per level,
  /// ending at root_of(key).
  std::vector<SlotId> lookup_path(SlotId source, DhtId key) const;

  /// Union of all table entries as an undirected logical graph.
  LogicalGraph to_logical_graph() const;

  /// Refills every cell with the physically closest eligible node —
  /// Tapestry's published neighbor-selection rule; of equally near
  /// candidates the highest slot wins.
  void apply_proximity(std::span<const NodeId> hosts,
                       const LatencyOracle& oracle);

 private:
  explicit TapestryNetwork(std::vector<DhtId> ids);

  std::vector<DhtId> ids_;
  /// tables_[s][hex_cell(level, digit)]; the later candidate takes a tie.
  std::vector<std::vector<SlotId>> tables_;
};

/// OverlayNetwork over a Tapestry mesh: slot i bound to hosts[i].
OverlayNetwork make_tapestry_overlay(const TapestryNetwork& tapestry,
                                     std::span<const NodeId> hosts,
                                     const LatencyOracle& oracle,
                                     obs::EventBus* trace = nullptr);

}  // namespace propsim
