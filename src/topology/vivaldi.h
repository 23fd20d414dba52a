// Vivaldi virtual network coordinates (Dabek, Cox, Kaashoek, Morris,
// SIGCOMM 2004) — decentralized latency estimation.
//
// PROP pays `2c` (or `2m`) probe messages per exchange attempt
// (Section 4.3); with every peer holding a Vivaldi coordinate, the Var
// of a hypothetical exchange can be *estimated* from coordinates alone,
// trading probe traffic for estimation error. The ext_vivaldi bench
// quantifies that trade on the real overlay.
//
// Implementation: the classic adaptive-timestep spring relaxation in a
// three-dimensional Euclidean space plus a non-negative "height" per node
// modelling the access-link hop, with the paper's gains c_c = c_e = 0.25.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "topology/latency_oracle.h"

namespace propsim {

class VivaldiSystem {
 public:
  /// Coordinates for hosts [0, host_count); all start at the origin with
  /// tiny random jitter so springs have directions to push along.
  VivaldiSystem(std::size_t host_count, std::uint64_t seed);

  std::size_t host_count() const { return error_.size(); }

  /// One observation: host `i` measured `rtt_ms` to host `j`. Updates
  /// i's coordinate, error and height (the paper's node-at-a-time rule;
  /// j is untouched, matching a one-way deployment).
  void update(NodeId i, NodeId j, double rtt_ms);

  /// Estimated latency between two hosts (coordinate distance plus both
  /// heights).
  double estimate(NodeId i, NodeId j) const;

  double error_of(NodeId i) const { return error_[i]; }

  /// Drives `samples` random-pair measurements against ground truth —
  /// the bootstrap a deployed system gets for free from its traffic.
  void train(std::span<const NodeId> hosts, const LatencyOracle& oracle,
             std::size_t samples, Rng& rng);

  /// Median of |estimate - actual| / actual over sampled pairs.
  double median_relative_error(std::span<const NodeId> hosts,
                               const LatencyOracle& oracle,
                               std::size_t samples, Rng& rng) const;

 private:
  double coordinate_distance(NodeId i, NodeId j) const;

  /// coords_[host * kDimensions + d]
  std::vector<double> coords_;
  std::vector<double> height_;
  std::vector<double> error_;
  Rng rng_;
};

}  // namespace propsim
