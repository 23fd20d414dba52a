// Proximity Identifier Selection (PIS) baseline.
//
// Ratnasamy et al.'s topologically-aware overlay construction: every
// host measures its latency to a small set of landmark hosts, and hosts
// with the same landmark ordering (the same "bin") receive adjacent
// identifiers, so ring neighbors tend to be physically close.
#pragma once

#include <span>
#include <vector>

#include "common/id_space.h"
#include "common/rng.h"
#include "obs/event_bus.h"
#include "topology/latency_oracle.h"

namespace propsim {

/// Landmark-ordering bin of one host: the permutation of landmark
/// indices sorted by latency (nearest first). A non-null `trace` gets
/// one kLandmarkProbe per host-landmark measurement.
std::vector<std::uint32_t> landmark_ordering(NodeId host,
                                             std::span<const NodeId> landmarks,
                                             const LatencyOracle& oracle,
                                             obs::EventBus* trace = nullptr);

/// Assigns Chord identifiers to `hosts`: hosts are sorted by landmark
/// ordering (ties broken by a seeded shuffle so equal bins spread out),
/// then ids are spaced evenly around the ring in that order. Hosts in the
/// same bin become ring-adjacent.
std::vector<DhtId> pis_identifiers(std::span<const NodeId> hosts,
                                   std::span<const NodeId> landmarks,
                                   const LatencyOracle& oracle, Rng& rng,
                                   obs::EventBus* trace = nullptr);

}  // namespace propsim
