// Protocol-invariant lint rules.
//
// Each rule statically audits a snapshot of simulator state for one of the
// structural invariants the PROP reproduction rests on: PROP-G must leave
// the overlay unchanged up to isomorphism (Theorem 2), PROP-O must conserve
// every node's degree, a Chord substrate must keep its ring strictly
// monotone, a CAN substrate must keep its zones tiling the torus. Rules are
// registered in a global registry so the propsim_lint CLI, the unit tests
// and the paranoid in-simulation audit all see the same catalog.
#pragma once

#include <cstdint>
#include <memory>
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

/// Parses the graph_io edge-list text format leniently: out-of-range,
/// self-loop and duplicate edges are kept for the rules to flag instead
/// of aborting the process. Returns false (with the line in `error`)
/// when the text is structurally corrupt: no single "nodes <N>" header
/// before the first edge, a missing endpoint, or a node count or
/// endpoint that is not an unsigned decimal fitting 32 bits.
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

/// One invariant audit. Implementations are stateless; `check` appends
/// zero findings when the invariant holds.
class LintRule {
 public:
  virtual ~LintRule() = default;

  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;

  /// True when the context carries the inputs this rule needs.
  virtual bool applicable(const LintContext& ctx) const = 0;

  virtual void check(const LintContext& ctx,
                     std::vector<LintFinding>& findings) const = 0;
};

/// Global rule catalog. Rules self-register at static-init time; the
/// registry is append-only and iteration order is registration order.
class LintRuleRegistry {
 public:
  static LintRuleRegistry& instance();

  void add(std::unique_ptr<LintRule> rule);
  const std::vector<std::unique_ptr<LintRule>>& rules() const {
    return rules_;
  }
  /// Rule with the given name, or nullptr.
  const LintRule* find(std::string_view name) const;

 private:
  std::vector<std::unique_ptr<LintRule>> rules_;
};

/// Forces registration of the built-in rule set (safe to call repeatedly).
/// Called by InvariantChecker and the CLI; direct registry users that skip
/// InvariantChecker must call it once first.
void register_builtin_lint_rules();

}  // namespace propsim
