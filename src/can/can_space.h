// Content-Addressable Network (CAN) over a d-dimensional torus.
//
// Zones are axis-aligned boxes in a fixed-point coordinate space
// [0, 2^32)^d; joins split an existing zone at its midpoint along a
// round-robin dimension, so all coordinates stay exact dyadic values —
// adjacency tests are integer comparisons, never epsilon games.
//
// As with Chord, zones belong to *slots*; PROP-G swaps the hosts bound to
// two zones without touching the space partition.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "overlay/logical_graph.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"

namespace propsim {

using CanCoord = std::uint64_t;
/// Coordinates live in [0, kCanSpan) per dimension.
constexpr CanCoord kCanSpan = CanCoord{1} << 32;

constexpr std::size_t kCanDims = 2;
using CanPoint = std::array<CanCoord, kCanDims>;

/// Half-open box [lo, hi) per dimension; boxes never wrap internally
/// (only neighbor tests wrap across the torus seam).
struct CanZone {
  CanPoint lo;
  CanPoint hi;

  CanCoord extent(std::size_t dim) const { return hi[dim] - lo[dim]; }
  bool contains(const CanPoint& p) const;
  CanPoint center() const;
  /// Fraction of the full torus volume this zone covers.
  double volume_fraction() const;
};

/// Torus distance between two points (L1 over per-dimension wrap-around
/// distances), used by greedy routing.
double torus_distance(const CanPoint& a, const CanPoint& b);

/// True if the zones abut across exactly one dimension and overlap in all
/// others (the CAN neighbor relation), including across the torus seam.
bool zones_adjacent(const CanZone& a, const CanZone& b);

class CanSpace {
 public:
  /// Builds an n-zone CAN by n-1 random joins: each join picks a uniform
  /// random point and splits the owning zone at its midpoint along the
  /// dimension with the largest extent (ties -> lowest dim).
  static CanSpace build(std::size_t slot_count, Rng& rng);

  std::size_t size() const { return zones_.size(); }
  const CanZone& zone(SlotId s) const { return zones_[s]; }
  std::span<const SlotId> neighbors(SlotId s) const { return neighbors_[s]; }

  /// Slot owning point p (exactly one, since zones tile the torus).
  SlotId owner_of(const CanPoint& p) const;

  /// Greedy routing from `source` to the owner of `target`: each hop
  /// moves to the neighbor whose zone center is torus-closest to the
  /// target. Returns the slot path.
  std::vector<SlotId> route_path(SlotId source, const CanPoint& target) const;

  /// Neighbor relation as an undirected logical graph.
  LogicalGraph to_logical_graph() const;

 private:
  explicit CanSpace(std::size_t reserve_hint);
  void rebuild_neighbors();

  std::vector<CanZone> zones_;
  std::vector<std::vector<SlotId>> neighbors_;
};

/// OverlayNetwork over a CAN: slot i bound to hosts[i].
OverlayNetwork make_can_overlay(const CanSpace& space,
                                std::span<const NodeId> hosts,
                                const LatencyOracle& oracle,
                                obs::EventBus* trace = nullptr);

}  // namespace propsim
