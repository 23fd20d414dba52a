#include "analysis/invariant_checker.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/check.h"
#include "core/prop_engine.h"
#include "faults/fault_plan.h"

namespace propsim {

std::size_t LintReport::error_count() const {
  std::size_t n = 0;
  for (const LintFinding& f : findings) {
    if (f.severity == LintSeverity::kError) ++n;
  }
  return n;
}

std::size_t LintReport::warning_count() const {
  return findings.size() - error_count();
}

std::string LintReport::to_string() const {
  std::string out;
  for (const LintFinding& f : findings) {
    out += f.severity == LintSeverity::kError ? "error" : "warning";
    out += " [" + f.rule + "] " + f.message + "\n";
  }
  return out;
}

LintReport run_lint(const LintContext& ctx,
                    const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    PROPSIM_CHECK(find_lint_rule(name) != nullptr && "unknown lint rule name");
  }
  LintReport report;
  for (const LintRule& rule : lint_rules()) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), rule.name) == names.end()) {
      continue;
    }
    if (!rule.applicable(ctx)) {
      ++report.rules_skipped;
      continue;
    }
    ++report.rules_run;
    rule.check(rule, ctx, report.findings);
  }
  return report;
}

bool paranoid_checks_enabled() {
#ifdef PROPSIM_PARANOID
  return true;
#else
  return false;
#endif
}

NegotiationLockView negotiation_lock_view(const PropEngine& prop,
                                          const LogicalGraph& graph) {
  NegotiationLockView view;
  const std::size_t n =
      std::max<std::size_t>(prop.tracked_slots(), graph.slot_count());
  view.peer.resize(n, kInvalidSlot);
  view.active.resize(n, false);
  view.has_pending.resize(n, false);
  for (SlotId s = 0; s < n; ++s) {
    view.peer[s] = prop.negotiation_peer(s);
    view.active[s] = s < graph.slot_count() && graph.is_active(s);
    view.has_pending[s] = prop.has_pending_event(s);
  }
  return view;
}

namespace {

/// Partition-closure baseline, re-anchored whenever the set of open
/// windows changes: PROP freely moves hosts across a future cut before
/// its window opens, so t=0 state is not the right reference.
struct PartitionAuditState {
  std::vector<std::uint32_t> live;
  SnapshotGraph baseline_graph;
  std::vector<std::uint32_t> baseline_slot_domain;
};

}  // namespace

bool install_paranoid_audit(Scheduler& sim, const OverlayNetwork& net,
                            std::uint64_t every_n_events,
                            bool churn_expected, ParanoidAuditHooks hooks) {
  if (!paranoid_checks_enabled()) return false;
  std::vector<std::string> names{"edge-range", "no-self-loops",
                                 "no-parallel-edges", "connectivity",
                                 "placement-bijection"};
  if (!churn_expected) names.emplace_back("degree-conservation");
  // Joins and crash-stitching add edges without consulting the fault
  // injector, so the closure argument only holds for stable membership.
  const bool audit_partitions = hooks.faults != nullptr && !churn_expected;
  if (audit_partitions) names.emplace_back("partition-closure");
  if (hooks.prop != nullptr) names.emplace_back("negotiation-locks");
  // The hook owns its rule names and baselines; all live as long as the
  // simulator keeps the callback.
  auto baseline = std::make_shared<SnapshotGraph>(snapshot_of(net.graph()));
  auto pstate = std::make_shared<PartitionAuditState>();
  sim.set_audit(
      [names = std::move(names), baseline, pstate, &net, hooks,
       audit_partitions](const Scheduler& s) {
        const SnapshotGraph snap = snapshot_of(net.graph());
        LintContext ctx;
        ctx.graph = &snap;
        ctx.baseline = baseline.get();
        ctx.placement = &net.placement();
        PartitionView pview;
        if (audit_partitions) {
          pview.live_domains = hooks.faults->live_partitions();
          if (!pview.live_domains.empty()) {
            pview.slot_domain = slot_domains_of(
                net.placement(), hooks.faults->host_domains());
            if (pview.live_domains != pstate->live) {
              // A window just opened (or the set changed): anchor the
              // closure baseline at the first audit inside it.
              pstate->baseline_graph = snap;
              pstate->baseline_slot_domain = pview.slot_domain;
            }
            pview.baseline_slot_domain = pstate->baseline_slot_domain;
            pview.baseline_graph = &pstate->baseline_graph;
            ctx.partition = &pview;
          }
          pstate->live = pview.live_domains;
        }
        NegotiationLockView locks;
        if (hooks.prop != nullptr) {
          locks = negotiation_lock_view(*hooks.prop, net.graph());
          ctx.locks = &locks;
        }
        const LintReport report = run_lint(ctx, names);
        if (!report.passed()) {
          std::fprintf(stderr,
                       "propsim: paranoid audit failed at t=%.6f after "
                       "%llu events:\n%s",
                       s.now(),
                       static_cast<unsigned long long>(s.executed_events()),
                       report.to_string().c_str());
          std::abort();
        }
      },
      every_n_events);
  return true;
}

}  // namespace propsim
