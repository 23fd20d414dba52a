// Peer-exchange planning and execution — the PROP primitive.
//
// Planning is a pure function of the overlay state, so Var computation,
// candidate filtering and the connectivity/degree invariants are unit-
// testable without running the protocol engine.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "core/params.h"
#include "overlay/overlay_network.h"

namespace propsim {

struct ExchangePlan {
  PropMode mode = PropMode::kPropG;
  SlotId u = kInvalidSlot;
  SlotId v = kInvalidSlot;
  /// PROP-O transfer sets: u hands from_u to v, v hands from_v to u.
  /// Equal sizes by construction; empty for PROP-G.
  std::vector<SlotId> from_u;
  std::vector<SlotId> from_v;
  /// Predicted accumulated-latency gain (the paper's Var, eq. 2);
  /// positive means the exchange reduces the summed neighbor latencies.
  double var = 0.0;
};

/// Var for a PROP-G position swap of slots u and v (handles adjacent u,v
/// and shared neighbors exactly). A PROP-G plan is {kPropG, u, v, empty
/// sets, this Var}; it always exists, and the caller gates on var.
double prop_g_var(const OverlayNetwork& net, SlotId u, SlotId v);

/// Caller-owned working memory for plan_prop_o: greedy selection's
/// best candidates per side, each kept in greedy order (gain descending,
/// then slot ascending) and holding at most min(m, deg u, deg v) scores.
/// A caller that reuses one instance (and one ExchangePlan) plans
/// without allocating once the buffers have grown to the largest such
/// bound seen.
struct PlanScratch {
  struct Scored {
    double gain;
    SlotId slot;
  };
  std::vector<Scored> best_u;  // u's kept candidates, d(u,x) - d(v,x)
  std::vector<Scored> best_v;  // v's kept candidates, d(v,y) - d(u,y)
};

/// Plans a PROP-O exchange of up to `m` neighbors per side into `out`,
/// overwriting all of it and reusing its sets' capacity. `path` is the
/// probe walk u ... v; per Theorem 1 no neighbor on the path may move
/// (that keeps u—v connected afterwards). Transferable neighbors also
/// exclude the counterpart and anything already adjacent to it. Returns
/// false when either side has no transferable neighbor; `out` then holds
/// no plan.
bool plan_prop_o(ExchangePlan& out, PlanScratch& scratch,
                 const OverlayNetwork& net, SlotId u, SlotId v,
                 std::span<const SlotId> path, std::size_t m,
                 SelectionPolicy selection, Rng& rng);

/// Applies a plan: PROP-G swaps the placement, PROP-O rewires edges.
/// Degrees are preserved for PROP-O; the logical graph is untouched for
/// PROP-G.
void apply_exchange(OverlayNetwork& net, const ExchangePlan& plan);

/// Actual change in summed neighbor latencies caused by applying `plan`
/// (for tests: must equal plan.var).
double measured_gain(const OverlayNetwork& net, const ExchangePlan& plan);

}  // namespace propsim
