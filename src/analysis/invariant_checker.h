// run_lint: runs a selection of the lint rules (analysis/lint_rules.h)
// over a snapshot of simulator state and collects the findings.
//
// Three consumers share it: the propsim_lint CLI (offline audits of
// graph_io dumps), the unit tests (per-rule fixtures), and the paranoid
// in-simulation audit, which re-checks the live overlay every N events
// when the build defines PROPSIM_PARANOID.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lint_rules.h"
#include "overlay/overlay_network.h"
#include "sim/scheduler.h"

namespace propsim {

class FaultInjector;
class PropEngine;

struct LintReport {
  std::vector<LintFinding> findings;
  std::size_t rules_run = 0;
  std::size_t rules_skipped = 0;  // inapplicable to the given context

  std::size_t error_count() const;
  std::size_t warning_count() const;
  /// True when no error-severity finding was produced.
  bool passed() const { return error_count() == 0; }

  /// One line per finding: "severity [rule] message".
  std::string to_string() const;
};

/// Runs the rules named in `names` (every rule when empty) over `ctx`:
/// each selected rule once, in table order, whatever the order or
/// repetition of the names; inapplicable rules count as skipped.
/// Check-fails on an unknown name.
LintReport run_lint(const LintContext& ctx,
                    const std::vector<std::string>& names = {});

/// True when the library was compiled with PROPSIM_PARANOID (the in-run
/// audit below does real work only then).
bool paranoid_checks_enabled();

/// Optional live-state hooks for the fault-era audit rules. Both objects
/// are borrowed (may be null) and must outlive the simulation.
struct ParanoidAuditHooks {
  /// Enables partition-closure: slot sides and the cut size are audited
  /// against a baseline re-anchored whenever a partition window opens.
  const FaultInjector* faults = nullptr;
  /// Enables negotiation-locks: the engine's two-phase lock table is
  /// audited for symmetry, liveness and a pending release event.
  const PropEngine* prop = nullptr;
};

/// Assembles the two-phase lock view of a live engine for the
/// negotiation-locks rule (also used directly by tests).
NegotiationLockView negotiation_lock_view(const PropEngine& prop,
                                          const LogicalGraph& graph);

/// Installs a periodic structural audit on the simulator: every
/// `every_n_events` executed events the overlay is re-linted against the
/// structural rules (edge-range, self-loops, parallel edges, connectivity,
/// placement bijection) plus degree conservation against a baseline
/// snapshot taken here. Aborts the process on the first error finding —
/// a silent invariant violation would invalidate every figure downstream.
///
/// Degree conservation and partition closure are skipped when
/// `churn_expected` is true (joins and leaves legitimately change the
/// multiset, and un-gated join/stitch edges may cross an open cut).
/// `net` and `sim` must outlive the simulation. No-op (and returns
/// false) unless the library was built with PROPSIM_PARANOID.
bool install_paranoid_audit(Scheduler& sim, const OverlayNetwork& net,
                            std::uint64_t every_n_events = 4096,
                            bool churn_expected = false,
                            ParanoidAuditHooks hooks = {});

}  // namespace propsim
