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

/// Never leave any node below this degree.
inline constexpr std::size_t kSelfishMinDegree = 2;

struct SelfishOutcome {
  bool rewired = false;
  double gain = 0.0;  // latency improvement for the acting node only
};

/// One selfish step for node u: random-walk to a candidate, and if it is
/// closer than u's farthest neighbor, cut that neighbor and connect to
/// the candidate. Preserves u's degree but not the ex-neighbor's.
SelfishOutcome selfish_step(OverlayNetwork& net, SlotId u, Rng& rng);

}  // namespace propsim
