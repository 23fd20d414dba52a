#include "can/can_space.h"

#include <algorithm>

namespace propsim {
namespace {

/// Wrap-around distance between two scalar coordinates on [0, kCanSpan).
CanCoord wrap_distance(CanCoord a, CanCoord b) {
  const CanCoord d = (a > b) ? a - b : b - a;
  return std::min(d, kCanSpan - d);
}

/// Torus distance from coordinate x to the half-open interval [lo, hi).
CanCoord coord_to_interval(CanCoord x, CanCoord lo, CanCoord hi) {
  if (x >= lo && x < hi) return 0;
  return std::min(wrap_distance(x, lo), wrap_distance(x, hi - 1));
}

/// L1 torus distance from point p to zone z (0 when contained); the
/// monotone potential greedy routing descends.
double point_to_zone(const CanPoint& p, const CanZone& z) {
  double total = 0.0;
  for (std::size_t d = 0; d < kCanDims; ++d) {
    total += static_cast<double>(coord_to_interval(p[d], z.lo[d], z.hi[d]));
  }
  return total;
}

/// True if [alo, ahi) and [blo, bhi) share positive-length overlap,
/// including across the torus seam (intervals themselves never wrap).
bool intervals_overlap(CanCoord alo, CanCoord ahi, CanCoord blo,
                       CanCoord bhi) {
  return alo < bhi && blo < ahi;
}

/// True if the intervals abut: one's hi is the other's lo, possibly
/// across the seam (hi == kCanSpan meets lo == 0).
bool intervals_abut(CanCoord alo, CanCoord ahi, CanCoord blo, CanCoord bhi) {
  auto meets = [](CanCoord hi, CanCoord lo) {
    return hi == lo || (hi == kCanSpan && lo == 0);
  };
  return meets(ahi, blo) || meets(bhi, alo);
}

}  // namespace

bool CanZone::contains(const CanPoint& p) const {
  for (std::size_t d = 0; d < kCanDims; ++d) {
    if (p[d] < lo[d] || p[d] >= hi[d]) return false;
  }
  return true;
}

CanPoint CanZone::center() const {
  CanPoint c;
  for (std::size_t d = 0; d < kCanDims; ++d) {
    c[d] = lo[d] + extent(d) / 2;
  }
  return c;
}

double CanZone::volume_fraction() const {
  double v = 1.0;
  for (std::size_t d = 0; d < kCanDims; ++d) {
    v *= static_cast<double>(extent(d)) / static_cast<double>(kCanSpan);
  }
  return v;
}

double torus_distance(const CanPoint& a, const CanPoint& b) {
  double total = 0.0;
  for (std::size_t d = 0; d < kCanDims; ++d) {
    total += static_cast<double>(wrap_distance(a[d], b[d]));
  }
  return total;
}

bool zones_adjacent(const CanZone& a, const CanZone& b) {
  // Exactly one dimension abuts; all others overlap.
  std::size_t abutting = 0;
  for (std::size_t d = 0; d < kCanDims; ++d) {
    const bool overlap =
        intervals_overlap(a.lo[d], a.hi[d], b.lo[d], b.hi[d]);
    const bool abut = intervals_abut(a.lo[d], a.hi[d], b.lo[d], b.hi[d]);
    if (overlap) continue;
    if (abut) {
      ++abutting;
      continue;
    }
    return false;  // neither overlapping nor touching in this dimension
  }
  return abutting == 1;
}

CanSpace::CanSpace(std::size_t reserve_hint) {
  zones_.reserve(reserve_hint);
  neighbors_.reserve(reserve_hint);
}

CanSpace CanSpace::build(std::size_t slot_count, Rng& rng) {
  PROPSIM_CHECK(slot_count >= 2);
  CanSpace space(slot_count);
  CanZone whole;
  whole.lo.fill(0);
  whole.hi.fill(kCanSpan);
  space.zones_.push_back(whole);

  while (space.zones_.size() < slot_count) {
    // A uniformly random point lands in a zone with probability equal to
    // its volume — exactly CAN's join rule, which keeps the partition
    // statistically balanced.
    CanPoint p;
    for (std::size_t d = 0; d < kCanDims; ++d) {
      p[d] = rng.uniform(kCanSpan);
    }
    const SlotId victim = space.owner_of(p);
    CanZone& zone = space.zones_[victim];

    // Split along the widest dimension so zones stay close to square.
    std::size_t dim = 0;
    for (std::size_t d = 1; d < kCanDims; ++d) {
      if (zone.extent(d) > zone.extent(dim)) dim = d;
    }
    if (zone.extent(dim) < 2) continue;  // unsplittable sliver; re-draw

    const CanCoord mid = zone.lo[dim] + zone.extent(dim) / 2;
    CanZone upper = zone;
    upper.lo[dim] = mid;
    zone.hi[dim] = mid;
    space.zones_.push_back(upper);
  }
  space.rebuild_neighbors();
  return space;
}

void CanSpace::rebuild_neighbors() {
  const std::size_t n = zones_.size();
  neighbors_.assign(n, {});
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (zones_adjacent(zones_[a], zones_[b])) {
        neighbors_[a].push_back(static_cast<SlotId>(b));
        neighbors_[b].push_back(static_cast<SlotId>(a));
      }
    }
  }
}

SlotId CanSpace::owner_of(const CanPoint& p) const {
  for (std::size_t s = 0; s < zones_.size(); ++s) {
    if (zones_[s].contains(p)) return static_cast<SlotId>(s);
  }
  PROPSIM_CHECK(false && "CAN zones must tile the space");
  return kInvalidSlot;
}

std::vector<SlotId> CanSpace::route_path(SlotId source,
                                         const CanPoint& target) const {
  PROPSIM_CHECK(source < zones_.size());
  std::vector<SlotId> path{source};
  SlotId here = source;
  double here_dist = point_to_zone(target, zones_[here]);
  while (here_dist > 0.0) {
    SlotId best = kInvalidSlot;
    double best_dist = here_dist;
    for (const SlotId nb : neighbors_[here]) {
      const double d = point_to_zone(target, zones_[nb]);
      if (d < best_dist) {
        best = nb;
        best_dist = d;
      }
    }
    // The zone crossed next by the geodesic toward the target abuts this
    // one, so a strictly closer neighbor always exists.
    PROPSIM_CHECK(best != kInvalidSlot);
    here = best;
    here_dist = best_dist;
    path.push_back(here);
  }
  return path;
}

LogicalGraph CanSpace::to_logical_graph() const {
  LogicalGraph g(zones_.size());
  for (std::size_t a = 0; a < zones_.size(); ++a) {
    for (const SlotId b : neighbors_[a]) {
      if (b > static_cast<SlotId>(a)) {
        g.add_edge(static_cast<SlotId>(a), b);
      }
    }
  }
  return g;
}

OverlayNetwork make_can_overlay(const CanSpace& space,
                                std::span<const NodeId> hosts,
                                const LatencyOracle& oracle,
                                obs::EventBus* trace) {
  PROPSIM_CHECK(hosts.size() == space.size());
  return bind_overlay(space.to_logical_graph(), hosts, oracle, trace);
}

}  // namespace propsim
