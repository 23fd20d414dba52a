#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/invariant_checker.h"
#include "analysis/lint_rules.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "fixtures.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

/// Runs one named rule over the context.
LintReport run_rule(const std::string& name, const LintContext& ctx) {
  return InvariantChecker(std::vector<std::string>{name}).run(ctx);
}

SnapshotGraph triangle() {
  SnapshotGraph g;
  g.node_count = 3;
  g.edges = {{0, 1}, {1, 2}, {0, 2}};
  return g;
}

// ------------------------------------------------------- snapshot loading

TEST(SnapshotGraph, LenientParserKeepsBrokenEdges) {
  const std::string text =
      "# corrupt dump\n"
      "nodes 4\n"
      "0 1 1.5\n"
      "2 2 1.0\n"   // self-loop
      "0 1 2.0\n"   // parallel edge
      "3 9 1.0\n";  // out-of-range endpoint
  SnapshotGraph snap;
  ASSERT_TRUE(snapshot_from_edge_list(text, snap, nullptr));
  EXPECT_EQ(snap.node_count, 4u);
  EXPECT_EQ(snap.edges.size(), 4u);
}

TEST(SnapshotGraph, ParserRejectsMissingHeader) {
  SnapshotGraph snap;
  std::string err;
  EXPECT_FALSE(snapshot_from_edge_list("0 1 1.0\n", snap, &err));
  EXPECT_FALSE(err.empty());
}

TEST(SnapshotGraph, SnapshotOfLogicalGraphMatchesEdges) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.deactivate_slot(3);
  const SnapshotGraph snap = snapshot_of(g);
  EXPECT_EQ(snap.node_count, 4u);
  EXPECT_EQ(snap.edges.size(), 2u);
  EXPECT_EQ(snap.degree_multiset(),
            (std::vector<std::size_t>{0, 1, 1, 2}));
}

// ----------------------------------------------------------- graph rules

TEST(LintRules, EdgeRangeFlagsOutOfRangeEndpoint) {
  SnapshotGraph g = triangle();
  g.edges.emplace_back(1, 7);
  const LintContext ctx{.graph = &g};
  const LintReport report = run_rule("edge-range", ctx);
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.to_string().find("edge-range"), std::string::npos);
}

TEST(LintRules, SelfLoopFlaggedCleanPasses) {
  SnapshotGraph ok = triangle();
  const LintContext ok_ctx{.graph = &ok};
  EXPECT_TRUE(run_rule("no-self-loops", ok_ctx).passed());

  SnapshotGraph bad = triangle();
  bad.edges.emplace_back(1, 1);
  const LintContext bad_ctx{.graph = &bad};
  const LintReport report = run_rule("no-self-loops", bad_ctx);
  ASSERT_EQ(report.error_count(), 1u);
  EXPECT_NE(report.findings[0].message.find("self-loop"),
            std::string::npos);
}

TEST(LintRules, ParallelEdgeFlaggedInEitherOrientation) {
  SnapshotGraph bad = triangle();
  bad.edges.emplace_back(2, 1);  // duplicates 1-2, reversed
  const LintContext ctx{.graph = &bad};
  EXPECT_EQ(run_rule("no-parallel-edges", ctx).error_count(), 1u);

  SnapshotGraph ok = triangle();
  const LintContext ok_ctx{.graph = &ok};
  EXPECT_TRUE(run_rule("no-parallel-edges", ok_ctx).passed());
}

TEST(LintRules, ConnectivityFlagsSplitOverlay) {
  SnapshotGraph bad;
  bad.node_count = 4;
  bad.edges = {{0, 1}, {2, 3}};  // two components
  const LintContext ctx{.graph = &bad};
  const LintReport report = run_rule("connectivity", ctx);
  EXPECT_FALSE(report.passed());
}

TEST(LintRules, ConnectivityTreatsIsolatedSlotsAsWarning) {
  SnapshotGraph g = triangle();
  g.node_count = 5;  // slots 3 and 4 isolated (inactive in a dump)
  const LintContext ctx{.graph = &g};
  const LintReport report = run_rule("connectivity", ctx);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST(LintRules, DegreeConservationDetectsDivergence) {
  SnapshotGraph before = triangle();
  // A PROP-O style rewire that conserves the multiset: 0-1,1-2,0-2 has
  // degrees {2,2,2}; so does any relabelled triangle.
  SnapshotGraph same;
  same.node_count = 3;
  same.edges = {{2, 0}, {0, 1}, {1, 2}};
  LintContext ok_ctx;
  ok_ctx.graph = &same;
  ok_ctx.baseline = &before;
  EXPECT_TRUE(run_rule("degree-conservation", ok_ctx).passed());

  SnapshotGraph lost;
  lost.node_count = 3;
  lost.edges = {{0, 1}, {1, 2}};  // degrees {1,1,2}
  LintContext bad_ctx;
  bad_ctx.graph = &lost;
  bad_ctx.baseline = &before;
  EXPECT_FALSE(run_rule("degree-conservation", bad_ctx).passed());
}

TEST(LintRules, DegreeConservationNeedsBaseline) {
  SnapshotGraph g = triangle();
  const LintContext ctx{.graph = &g};
  const LintReport report = run_rule("degree-conservation", ctx);
  EXPECT_EQ(report.rules_run, 0u);
  EXPECT_EQ(report.rules_skipped, 1u);
}

// --------------------------------------------------- PROP-G isomorphism

TEST(LintRules, PropGIsomorphismSlotLevel) {
  SnapshotGraph before = triangle();
  SnapshotGraph same;
  same.node_count = 3;
  same.edges = {{2, 0}, {1, 0}, {2, 1}};  // same set, shuffled/reversed
  LintContext ok_ctx;
  ok_ctx.graph = &same;
  ok_ctx.baseline = &before;
  EXPECT_TRUE(run_rule("prop-g-isomorphism", ok_ctx).passed());

  SnapshotGraph rewired;
  rewired.node_count = 3;
  rewired.edges = {{0, 1}, {1, 2}};
  LintContext bad_ctx;
  bad_ctx.graph = &rewired;
  bad_ctx.baseline = &before;
  EXPECT_FALSE(run_rule("prop-g-isomorphism", bad_ctx).passed());
}

TEST(LintRules, PropGIsomorphismAcceptsPlacementSwap) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Placement before(3, 10);
  before.bind(0, 4);
  before.bind(1, 5);
  before.bind(2, 6);
  Placement after = before;
  after.swap_slots(0, 2);  // the PROP-G primitive
  const SnapshotGraph snap = snapshot_of(g);
  LintContext ctx;
  ctx.graph = &snap;
  ctx.baseline = &snap;
  ctx.placement = &after;
  ctx.baseline_placement = &before;
  EXPECT_TRUE(run_rule("prop-g-isomorphism", ctx).passed());
}

TEST(LintRules, PropGIsomorphismFlagsMembershipChange) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  Placement before(3, 10);
  before.bind(0, 4);
  before.bind(1, 5);
  before.bind(2, 6);
  Placement after = before;
  after.unbind(2);  // a slot silently lost its host
  const SnapshotGraph snap = snapshot_of(g);
  LintContext ctx;
  ctx.graph = &snap;
  ctx.baseline = &snap;
  ctx.placement = &after;
  ctx.baseline_placement = &before;
  EXPECT_FALSE(run_rule("prop-g-isomorphism", ctx).passed());
}

// ------------------------------------------------------- placement rule

TEST(LintRules, PlacementBijectionAcceptsChurnedPlacement) {
  Placement p(6, 12);
  p.bind(0, 3);
  p.bind(1, 7);
  p.bind(2, 9);
  p.unbind(1);
  p.bind(1, 11);
  p.swap_slots(0, 2);
  LintContext ctx;
  ctx.placement = &p;
  const LintReport report = run_rule("placement-bijection", ctx);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.rules_run, 1u);
}

// ------------------------------------------------------ substrate rules

TEST(LintRules, ChordMonotonicityHoldsForBuiltRings) {
  Rng rng(20070901);
  const ChordRing random_ring = ChordRing::build_random(32, {}, rng);
  LintContext ctx;
  ctx.chord = &random_ring;
  EXPECT_TRUE(run_rule("chord-monotonicity", ctx).passed());

  // Caller-chosen ids (the PIS baseline path) must audit clean too.
  std::vector<ChordId> ids;
  for (ChordId i = 0; i < 16; ++i) ids.push_back(i * 1000 + 17);
  const ChordRing pis_ring = ChordRing::build_with_ids(ids, {});
  ctx.chord = &pis_ring;
  EXPECT_TRUE(run_rule("chord-monotonicity", ctx).passed());
}

TEST(LintRules, CanTilingHoldsForBuiltSpaces) {
  Rng rng(42);
  const CanSpace space = CanSpace::build(24, rng);
  LintContext ctx;
  ctx.can = &space;
  EXPECT_TRUE(run_rule("can-tiling", ctx).passed());
}

// ------------------------------------------------------ checker plumbing

TEST(InvariantChecker, RegistryContainsCatalog) {
  register_builtin_lint_rules();
  const auto& reg = LintRuleRegistry::instance();
  for (const char* name :
       {"edge-range", "no-self-loops", "no-parallel-edges", "connectivity",
        "degree-conservation", "prop-g-isomorphism", "placement-bijection",
        "chord-monotonicity", "can-tiling", "partition-closure",
        "negotiation-locks"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.find("no-such-rule"), nullptr);
}

TEST(InvariantChecker, FullRunOverLiveOverlayPasses) {
  auto fx = testing::UnstructuredFixture::make(40, 7);
  const SnapshotGraph snap = snapshot_of(fx.net.graph());
  LintContext ctx;
  ctx.graph = &snap;
  ctx.baseline = &snap;
  ctx.placement = &fx.net.placement();
  ctx.baseline_placement = &fx.net.placement();
  const InvariantChecker checker;  // every registered rule
  const LintReport report = checker.run(ctx);
  EXPECT_TRUE(report.passed()) << report.to_string();
  // chord + can structures absent, partition + lock views not supplied.
  EXPECT_EQ(report.rules_skipped, 4u);
}

TEST(InvariantChecker, PropGRunPreservesAllInvariants) {
  auto fx = testing::UnstructuredFixture::make(40, 11);
  const SnapshotGraph baseline = snapshot_of(fx.net.graph());
  const Placement baseline_placement = fx.net.placement();

  Scheduler sim;
  PropParams params;
  params.mode = PropMode::kPropG;
  PropEngine engine(fx.net, sim, params, 13);
  engine.start();
  sim.run_until(600.0);
  ASSERT_GT(engine.stats().exchanges, 0u);

  const SnapshotGraph snap = snapshot_of(fx.net.graph());
  LintContext ctx;
  ctx.graph = &snap;
  ctx.baseline = &baseline;
  ctx.placement = &fx.net.placement();
  ctx.baseline_placement = &baseline_placement;
  const LintReport report = InvariantChecker().run(ctx);
  EXPECT_TRUE(report.passed()) << report.to_string();
}

TEST(Scheduler, AuditHookFiresAtInterval) {
  Scheduler sim;
  int fired = 0;
  sim.set_audit([&](const Scheduler&) { ++fired; }, 3);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(static_cast<double>(i), [] {});
  }
  sim.run_all();
  EXPECT_EQ(fired, 3);  // after events 3, 6, 9
  sim.set_audit(nullptr, 0);  // uninstall must be accepted
}

TEST(InvariantChecker, ParanoidAuditMatchesBuildFlag) {
  auto fx = testing::UnstructuredFixture::make(30, 5);
  Scheduler sim;
  const bool installed = install_paranoid_audit(sim, fx.net, 2);
  EXPECT_EQ(installed, paranoid_checks_enabled());
  // With the audit armed (paranoid builds), a healthy overlay must sail
  // through; in regular builds this just runs the events.
  for (int i = 0; i < 8; ++i) {
    sim.schedule_in(static_cast<double>(i), [] {});
  }
  sim.run_all();
  EXPECT_EQ(sim.executed_events(), 8u);
}

// ------------------------------------------------------ fault-era rules

TEST(LintRules, PartitionClosureAcceptsStableWindow) {
  SnapshotGraph now = triangle();
  SnapshotGraph before = triangle();
  PartitionView view;
  view.slot_domain = {1, 1, 0};
  view.baseline_slot_domain = {1, 1, 0};
  view.baseline_graph = &before;
  view.live_domains = {1};
  const LintContext ctx{.graph = &now, .partition = &view};
  EXPECT_TRUE(run_rule("partition-closure", ctx).passed());
}

TEST(LintRules, PartitionClosureFlagsSideFlip) {
  SnapshotGraph now = triangle();
  PartitionView view;
  view.slot_domain = {1, 0, 0};  // slot 1 left domain 1 mid-window
  view.baseline_slot_domain = {1, 1, 0};
  view.live_domains = {1};
  const LintContext ctx{.graph = &now, .partition = &view};
  const LintReport report = run_rule("partition-closure", ctx);
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.to_string().find("moved out of"), std::string::npos);
}

TEST(LintRules, PartitionClosureFlagsGrowingCut) {
  // Baseline: one crossing edge (0-2); now: 1-2 appeared as well.
  SnapshotGraph before;
  before.node_count = 3;
  before.edges = {{0, 1}, {0, 2}};
  SnapshotGraph now;
  now.node_count = 3;
  now.edges = {{0, 1}, {0, 2}, {1, 2}};
  PartitionView view;
  view.slot_domain = {1, 1, 0};
  view.baseline_slot_domain = {1, 1, 0};
  view.baseline_graph = &before;
  view.live_domains = {1};
  const LintContext ctx{.graph = &now, .partition = &view};
  const LintReport report = run_rule("partition-closure", ctx);
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.to_string().find("grew from 1 to 2"),
            std::string::npos);
}

TEST(LintRules, PartitionClosureSkipsUnboundSlots) {
  SnapshotGraph now = triangle();
  PartitionView view;
  view.slot_domain = {1, PartitionView::kUnbound, 0};
  view.baseline_slot_domain = {1, 1, 0};
  view.live_domains = {1};
  const LintContext ctx{.graph = &now, .partition = &view};
  EXPECT_TRUE(run_rule("partition-closure", ctx).passed());
}

TEST(LintRules, SlotDomainsOfTracksPlacement) {
  Placement placement(3, 4);
  placement.bind(0, 2);
  placement.bind(2, 0);
  const std::vector<std::uint32_t> host_domain = {7, 0, 9, 0};
  const auto domains = slot_domains_of(placement, host_domain);
  ASSERT_EQ(domains.size(), 3u);
  EXPECT_EQ(domains[0], 9u);
  EXPECT_EQ(domains[1], PartitionView::kUnbound);
  EXPECT_EQ(domains[2], 7u);
}

TEST(LintRules, NegotiationLocksAcceptHealthyPair) {
  NegotiationLockView view;
  view.peer = {1, 0, kInvalidSlot};
  view.active = {true, true, true};
  view.has_pending = {true, false, false};  // initiator owns the release
  const LintContext ctx{.locks = &view};
  EXPECT_TRUE(run_rule("negotiation-locks", ctx).passed());
}

TEST(LintRules, NegotiationLocksFlagViolations) {
  NegotiationLockView view;
  view.peer = {0, 2, kInvalidSlot, 4, 3};
  view.active = {true, true, true, false, true};
  view.has_pending = {false, false, false, true, false};
  const LintContext ctx{.locks = &view};
  const LintReport report = run_rule("negotiation-locks", ctx);
  EXPECT_FALSE(report.passed());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("locked with itself"), std::string::npos);
  EXPECT_NE(text.find("asymmetric"), std::string::npos);
  EXPECT_NE(text.find("inactive slot 3"), std::string::npos);
}

TEST(LintRules, NegotiationLocksFlagOrphanedPair) {
  NegotiationLockView view;
  view.peer = {1, 0};
  view.active = {true, true};
  view.has_pending = {false, false};  // nobody owns a release event
  const LintContext ctx{.locks = &view};
  const LintReport report = run_rule("negotiation-locks", ctx);
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.to_string().find("never be released"),
            std::string::npos);
}

TEST(LintRules, NegotiationLockViewMirrorsEngine) {
  auto fx = testing::UnstructuredFixture::make(20, 4);
  Scheduler sim;
  PropEngine prop(fx.net, sim, PropParams{}, /*seed=*/4);
  const NegotiationLockView view =
      negotiation_lock_view(prop, fx.net.graph());
  ASSERT_GE(view.peer.size(), fx.net.graph().slot_count());
  for (const SlotId p : view.peer) {
    EXPECT_EQ(p, kInvalidSlot);  // idle engine holds no locks
  }
  const LintContext ctx{.locks = &view};
  EXPECT_TRUE(run_rule("negotiation-locks", ctx).passed());
}

}  // namespace
}  // namespace propsim
