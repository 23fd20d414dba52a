#include "topology/vivaldi.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace propsim {
namespace {

constexpr std::size_t kDimensions = 3;
/// Adaptive timestep gain (c_c in the paper).
constexpr double kCc = 0.25;
/// Error-average gain (c_e in the paper).
constexpr double kCe = 0.25;
/// Initial per-node error estimate (1.0 = know nothing).
constexpr double kInitialError = 1.0;
/// Initial height in milliseconds.
constexpr double kInitialHeightMs = 1.0;

}  // namespace

VivaldiSystem::VivaldiSystem(std::size_t host_count, std::uint64_t seed)
    : coords_(host_count * kDimensions, 0.0),
      height_(host_count, kInitialHeightMs),
      error_(host_count, kInitialError),
      rng_(seed) {
  // Tiny jitter: two nodes at the exact same point cannot compute a
  // push direction deterministically.
  for (double& c : coords_) c = rng_.uniform_double(-0.01, 0.01);
}

double VivaldiSystem::coordinate_distance(NodeId i, NodeId j) const {
  double sum = 0.0;
  const std::size_t d = kDimensions;
  for (std::size_t k = 0; k < d; ++k) {
    const double delta = coords_[i * d + k] - coords_[j * d + k];
    sum += delta * delta;
  }
  return std::sqrt(sum);
}

double VivaldiSystem::estimate(NodeId i, NodeId j) const {
  PROPSIM_DCHECK(i < error_.size() && j < error_.size());
  if (i == j) return 0.0;
  return coordinate_distance(i, j) + height_[i] + height_[j];
}

void VivaldiSystem::update(NodeId i, NodeId j, double rtt_ms) {
  PROPSIM_CHECK(i < error_.size() && j < error_.size());
  PROPSIM_CHECK(i != j);
  PROPSIM_CHECK(rtt_ms > 0.0);

  const double predicted = estimate(i, j);
  // Sample weight: how much i trusts this measurement relative to its
  // own confidence vs j's.
  const double w = error_[i] / (error_[i] + error_[j] + 1e-12);
  const double sample_error =
      std::abs(predicted - rtt_ms) / std::max(rtt_ms, 1e-9);
  error_[i] = std::clamp(
      sample_error * kCe * w + error_[i] * (1.0 - kCe * w),
      0.001, 10.0);

  const double delta = kCc * w;
  const double force = rtt_ms - predicted;  // >0: too close, push apart

  // Unit vector from j toward i in coordinate space.
  const std::size_t d = kDimensions;
  double norm = coordinate_distance(i, j);
  if (norm < 1e-9) {
    // Coincident points: pick a deterministic random direction.
    double sum = 0.0;
    std::vector<double> dir(d);
    for (std::size_t k = 0; k < d; ++k) {
      dir[k] = rng_.uniform_double(-1.0, 1.0);
      sum += dir[k] * dir[k];
    }
    const double len = std::sqrt(std::max(sum, 1e-12));
    for (std::size_t k = 0; k < d; ++k) {
      coords_[i * d + k] += delta * force * dir[k] / len;
    }
  } else {
    for (std::size_t k = 0; k < d; ++k) {
      const double unit = (coords_[i * d + k] - coords_[j * d + k]) / norm;
      coords_[i * d + k] += delta * force * unit;
    }
  }
  // Height absorbs the non-Euclidean access-link share; never negative.
  height_[i] = std::max(kInitialHeightMs * 0.01,
                        height_[i] + delta * force *
                                         (height_[i] /
                                          std::max(predicted, 1e-9)));
}

void VivaldiSystem::train(std::span<const NodeId> hosts,
                          const LatencyOracle& oracle, std::size_t samples,
                          Rng& rng) {
  PROPSIM_CHECK(hosts.size() >= 2);
  for (std::size_t s = 0; s < samples; ++s) {
    const NodeId i = hosts[static_cast<std::size_t>(
        rng.uniform(hosts.size()))];
    NodeId j;
    do {
      j = hosts[static_cast<std::size_t>(rng.uniform(hosts.size()))];
    } while (j == i);
    const double rtt = oracle.latency(i, j);
    if (rtt <= 0.0) continue;
    update(i, j, rtt);
  }
}

double VivaldiSystem::median_relative_error(std::span<const NodeId> hosts,
                                            const LatencyOracle& oracle,
                                            std::size_t samples,
                                            Rng& rng) const {
  PROPSIM_CHECK(hosts.size() >= 2);
  Samples errors;
  for (std::size_t s = 0; s < samples; ++s) {
    const NodeId i = hosts[static_cast<std::size_t>(
        rng.uniform(hosts.size()))];
    NodeId j;
    do {
      j = hosts[static_cast<std::size_t>(rng.uniform(hosts.size()))];
    } while (j == i);
    const double actual = oracle.latency(i, j);
    if (actual <= 0.0) continue;
    errors.add(std::abs(estimate(i, j) - actual) / actual);
  }
  PROPSIM_CHECK(!errors.empty());
  return errors.median();
}

}  // namespace propsim
