// Selfish nearest-neighbor rewiring — the strawman of the paper's
// Section 3.1.
//
// Each node greedily replaces its farthest logical neighbor with the
// closest candidate it discovers, without asking whether the counterpart
// (or the system) benefits. The ablation bench contrasts the resulting
// system-wide average latency and degree distortion against PROP's
// cooperative exchanges.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "overlay/overlay_network.h"

namespace propsim {

struct SelfishParams {
  /// Walk TTL used to discover candidates (same as PROP's nhops).
  std::size_t nhops = 2;
  /// Never leave any node below this degree.
  std::size_t min_degree = 2;
};

struct SelfishOutcome {
  bool rewired = false;
  double gain = 0.0;  // latency improvement for the acting node only
};

/// One selfish step for node u: random-walk to a candidate, and if it is
/// closer than u's farthest neighbor, cut that neighbor and connect to
/// the candidate. Preserves u's degree but not the ex-neighbor's.
SelfishOutcome selfish_step(OverlayNetwork& net, SlotId u,
                            const SelfishParams& params, Rng& rng);

}  // namespace propsim
