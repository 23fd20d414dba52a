// Location-aware Topology Matching (LTM) baseline.
//
// Liu et al., "Location awareness in unstructured peer-to-peer systems"
// (TPDS 2005) — the unstructured-overlay comparator of the paper's
// Figure 7. Each peer periodically floods a TTL-2 detector, measures the
// delay to its one- and two-hop neighborhood, cuts direct links that are
// slower than an existing two-hop detour (redundant, low-productive), and
// connects to the closest two-hop peer instead. Unlike PROP-O, node
// degrees are NOT preserved, which is exactly the property the paper's
// heterogeneity experiment exposes.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "overlay/overlay_network.h"
#include "sim/scheduler.h"

namespace propsim {

/// Never cut below this degree: the original LTM's "will not cut the
/// only link" guard, generalized.
inline constexpr std::size_t kLtmMinDegree = 2;

/// Runs one LTM round for peer u; returns the number of links changed
/// (cuts + adds). Exposed for unit tests; the engine drives it on a timer.
std::size_t ltm_round(OverlayNetwork& net, SlotId u);

class LtmEngine {
 public:
  /// Each active slot runs a detector round every `interval_s` seconds.
  LtmEngine(OverlayNetwork& net, Scheduler& sim, double interval_s,
            std::uint64_t seed);

  /// Schedules the periodic detector round of every active slot.
  void start();
  void stop();

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t links_changed() const { return links_changed_; }

 private:
  void on_timer(SlotId s);

  OverlayNetwork& net_;
  Scheduler& sim_;
  double interval_s_;
  Rng rng_;
  std::vector<EventId> pending_;
  std::uint64_t rounds_ = 0;
  std::uint64_t links_changed_ = 0;
  bool started_ = false;
};

}  // namespace propsim
