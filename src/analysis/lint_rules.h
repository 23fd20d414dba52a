// Protocol-invariant lint rules.
//
// Each rule statically audits a snapshot of simulator state for one of the
// structural invariants the PROP reproduction rests on: PROP-G must leave
// the overlay unchanged up to isomorphism (Theorem 2), PROP-O must conserve
// every node's degree, a Chord substrate must keep its ring strictly
// monotone, a CAN substrate must keep its zones tiling the torus. The
// catalog is one constant table of rows (name, description, applicable,
// check) in lint_rules.cpp, so the propsim_lint CLI, the unit tests and
// the paranoid in-simulation audit all see the same rules in the same
// order; run_lint (analysis/invariant_checker.h) runs a selection of them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "overlay/logical_graph.h"
#include "overlay/placement.h"

namespace propsim {

class ChordRing;
class CanSpace;
class Graph;

/// Loosely-validated undirected edge list. Unlike Graph/LogicalGraph this
/// representation can hold *broken* topologies (self-loops, parallel
/// edges, out-of-range endpoints), which is the whole point: lint rules
/// must be able to look at corrupt snapshots without tripping the
/// constructors' own checks.
struct SnapshotGraph {
  using Edge = std::pair<std::uint32_t, std::uint32_t>;

  std::size_t node_count = 0;
  std::vector<Edge> edges;  // as recorded; not canonicalized

  std::vector<std::size_t> degrees() const;
  /// Sorted per-node degree list (the PROP-O conserved quantity).
  std::vector<std::size_t> degree_multiset() const;
};

/// Snapshot of a live LogicalGraph (active slots only, inactive slots
/// appear isolated exactly as in a graph_io dump).
SnapshotGraph snapshot_of(const LogicalGraph& graph);

/// Snapshot of a physical Graph (weights dropped; lint is structural).
SnapshotGraph snapshot_of(const Graph& graph);

/// The largest node count a dump may declare. The rules hold about 24
/// bytes per node at once (propsim_lint's peak RSS: 95 MB at 4M nodes,
/// 371 MB at 16M), so 2^24 nodes cost about 400 MB; a 32-bit count
/// would ask for about 100 GB.
inline constexpr std::size_t kMaxSnapshotNodes = std::size_t{1} << 24;

/// Parses the graph_io edge-list text format leniently: out-of-range,
/// self-loop and duplicate edges are kept for the rules to flag instead
/// of aborting the process. Returns false (with the line in `error`)
/// when the text is structurally corrupt: no single "nodes <N>" header
/// before the first edge, a missing endpoint, a node count or endpoint
/// that is not an unsigned decimal fitting 32 bits, or a node count
/// above kMaxSnapshotNodes.
bool snapshot_from_edge_list(const std::string& text, SnapshotGraph& out,
                             std::string* error = nullptr);

/// Fault-era view for the partition-closure rule: which stub domain each
/// slot's bound host sits in, now and at the moment the current partition
/// window opened. While a window is live the engines guarantee (a) no
/// exchange moves a slot's host across the cut (every prepare/commit leg
/// is deliver()-gated) and (b) no new slot edge crosses it — a PROP-O
/// rewire a—u -> a—v preserves crossing status because u and v always sit
/// on the same side. The rule checks exactly those two consequences.
struct PartitionView {
  /// Bound host is a backbone (transit) node: never inside a partition.
  static constexpr std::uint32_t kNoDomain = static_cast<std::uint32_t>(-1);
  /// Slot has no bound host (inactive / mid-churn).
  static constexpr std::uint32_t kUnbound = static_cast<std::uint32_t>(-2);

  std::vector<std::uint32_t> slot_domain;           // current
  std::vector<std::uint32_t> baseline_slot_domain;  // at window entry
  /// Snapshot taken when the live-domain set last changed (window entry);
  /// the cut-size comparison runs against it. May be null (skipped then).
  const SnapshotGraph* baseline_graph = nullptr;
  /// Sorted stub domains whose partition window is open right now.
  std::vector<std::uint32_t> live_domains;
};

/// Per-slot domain of the bound host: kUnbound for unbound slots,
/// host_domain[h] (typically FaultInjector::host_domains()) otherwise.
/// Hosts beyond host_domain.size() map to PartitionView::kNoDomain.
std::vector<std::uint32_t> slot_domains_of(
    const Placement& placement,
    const std::vector<std::uint32_t>& host_domain);

/// Two-phase negotiation lock state for the lock-audit rule. A locked
/// pair must be symmetric, distinct, on active slots, and one endpoint
/// (the initiator) must own a scheduled simulator event that eventually
/// releases it — a lock with no pending event on either side is orphaned
/// and would survive the event queue draining.
struct NegotiationLockView {
  std::vector<SlotId> peer;       // kInvalidSlot when idle
  std::vector<bool> active;       // slot is active in the overlay
  std::vector<bool> has_pending;  // engine owns a scheduled event for it
};

/// Everything a rule may inspect. All pointers optional; a rule declares
/// itself inapplicable when its inputs are missing. `baseline` is the
/// pre-run snapshot that conservation rules (degree multiset, PROP-G
/// isomorphism) compare against.
struct LintContext {
  const SnapshotGraph* graph = nullptr;
  const SnapshotGraph* baseline = nullptr;
  const Placement* placement = nullptr;
  const Placement* baseline_placement = nullptr;
  const ChordRing* chord = nullptr;
  const CanSpace* can = nullptr;
  const PartitionView* partition = nullptr;
  const NegotiationLockView* locks = nullptr;
};

enum class LintSeverity { kWarning, kError };

struct LintFinding {
  std::string rule;
  LintSeverity severity = LintSeverity::kError;
  std::string message;
};

/// One invariant audit: a row of the rule table. `applicable` is true
/// when the context carries the inputs the rule needs; `check` appends
/// zero findings when the invariant holds and receives its own row, so
/// every finding carries the row's name.
struct LintRule {
  std::string_view name;
  std::string_view description;
  bool (*applicable)(const LintContext& ctx);
  void (*check)(const LintRule& rule, const LintContext& ctx,
                std::vector<LintFinding>& findings);
};

/// The rule catalog in table order: the order of `--list-rules`, of a
/// run and of its findings.
std::span<const LintRule> lint_rules();

/// Row with the given name, or nullptr.
const LintRule* find_lint_rule(std::string_view name);

}  // namespace propsim
