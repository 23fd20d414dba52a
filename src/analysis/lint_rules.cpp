#include "analysis/lint_rules.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "overlay/isomorphism.h"
#include "topology/graph.h"

namespace propsim {

std::vector<std::size_t> SnapshotGraph::degrees() const {
  std::vector<std::size_t> deg(node_count, 0);
  for (const Edge& e : edges) {
    if (e.first < node_count) ++deg[e.first];
    if (e.second < node_count) ++deg[e.second];
  }
  return deg;
}

std::vector<std::size_t> SnapshotGraph::degree_multiset() const {
  std::vector<std::size_t> deg = degrees();
  std::sort(deg.begin(), deg.end());
  return deg;
}

SnapshotGraph snapshot_of(const LogicalGraph& graph) {
  SnapshotGraph snap;
  snap.node_count = graph.slot_count();
  snap.edges.reserve(graph.edge_count());
  for (const SlotId s : graph.active_slots()) {
    for (const SlotId v : graph.neighbors(s)) {
      if (v > s) snap.edges.emplace_back(s, v);
    }
  }
  return snap;
}

SnapshotGraph snapshot_of(const Graph& graph) {
  SnapshotGraph snap;
  snap.node_count = graph.node_count();
  snap.edges.reserve(graph.edge_count());
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    for (const Graph::Edge& e : graph.neighbors(u)) {
      if (e.to > u) snap.edges.emplace_back(u, e.to);
    }
  }
  return snap;
}

namespace {

// A node count or endpoint: an unsigned decimal that fits 32 bits, the
// width of a slot id. No sign, no trailing characters, no wrap-around.
bool parse_u32(const std::string& token, std::uint32_t& out) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool snapshot_from_edge_list(const std::string& text, SnapshotGraph& out,
                             std::string* error) {
  std::istringstream in(text);
  std::string line;
  SnapshotGraph snap;
  bool have_nodes = false;
  std::size_t line_no = 0;
  const auto fail = [&](const char* what) {
    if (error) *error = std::string(what) + " at line " +
                        std::to_string(line_no);
    return false;
  };
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first)) continue;  // blank line
    if (first == "nodes") {
      std::string count;
      std::uint32_t n = 0;
      if (!(fields >> count) || !parse_u32(count, n) || have_nodes) {
        return fail("malformed nodes header");
      }
      if (n > kMaxSnapshotNodes) {
        return fail("node count above the 2^24 limit");
      }
      snap.node_count = n;
      have_nodes = true;
      continue;
    }
    if (!have_nodes) return fail("edge before nodes header");
    // Edge lines: "<u> <v> [weight]". Out-of-range and duplicate edges
    // are kept verbatim for the rules to flag.
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    if (!parse_u32(first, u)) return fail("malformed endpoint");
    std::string second;
    if (!(fields >> second)) return fail("missing endpoint");
    if (!parse_u32(second, v)) return fail("malformed endpoint");
    snap.edges.emplace_back(u, v);
  }
  if (!have_nodes) {
    if (error) *error = "missing nodes header";
    return false;
  }
  out = std::move(snap);
  return true;
}

namespace {

std::string fmt_edge(const SnapshotGraph::Edge& e) {
  return std::to_string(e.first) + "-" + std::to_string(e.second);
}

void add_finding(std::vector<LintFinding>& findings, std::string_view rule,
                 LintSeverity severity, std::string message) {
  findings.push_back(
      LintFinding{std::string(rule), severity, std::move(message)});
}

bool has_graph(const LintContext& ctx) { return ctx.graph != nullptr; }
bool has_baseline(const LintContext& ctx) {
  return ctx.graph != nullptr && ctx.baseline != nullptr;
}
bool has_placement(const LintContext& ctx) { return ctx.placement != nullptr; }
bool has_chord(const LintContext& ctx) { return ctx.chord != nullptr; }
bool has_can(const LintContext& ctx) { return ctx.can != nullptr; }
bool has_partition(const LintContext& ctx) {
  return ctx.graph != nullptr && ctx.partition != nullptr;
}
bool has_locks(const LintContext& ctx) { return ctx.locks != nullptr; }

// ------------------------------------------------------------- edge-range
void check_edge_range(const LintRule& rule, const LintContext& ctx,
                      std::vector<LintFinding>& findings) {
  for (const auto& e : ctx.graph->edges) {
    if (e.first >= ctx.graph->node_count ||
        e.second >= ctx.graph->node_count) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "edge " + fmt_edge(e) + " references a node >= " +
                      std::to_string(ctx.graph->node_count));
    }
  }
}

// ----------------------------------------------------------- no-self-loops
void check_no_self_loops(const LintRule& rule, const LintContext& ctx,
                         std::vector<LintFinding>& findings) {
  for (const auto& e : ctx.graph->edges) {
    if (e.first == e.second) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "self-loop at node " + std::to_string(e.first));
    }
  }
}

// ------------------------------------------------------- no-parallel-edges
void check_no_parallel_edges(const LintRule& rule, const LintContext& ctx,
                             std::vector<LintFinding>& findings) {
  // det-ok(D1): membership probe per packed edge key; never iterated
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(ctx.graph->edges.size());
  for (const auto& e : ctx.graph->edges) {
    const std::uint64_t lo = std::min(e.first, e.second);
    const std::uint64_t hi = std::max(e.first, e.second);
    if (!seen.insert((lo << 32) | hi).second) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "parallel edge " + fmt_edge(e));
    }
  }
}

// ------------------------------------------------------------ connectivity
void check_connectivity(const LintRule& rule, const LintContext& ctx,
                        std::vector<LintFinding>& findings) {
  const SnapshotGraph& g = *ctx.graph;
  const std::size_t n = g.node_count;
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (const auto& e : g.edges) {
    if (e.first >= n || e.second >= n || e.first == e.second) continue;
    adj[e.first].push_back(e.second);
    adj[e.second].push_back(e.first);
  }
  std::uint32_t start = static_cast<std::uint32_t>(n);
  std::size_t populated = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!adj[u].empty()) {
      if (start == n) start = u;
      ++populated;
    }
  }
  const std::size_t isolated = n - populated;
  if (isolated > 0) {
    add_finding(findings, rule.name, LintSeverity::kWarning,
                std::to_string(isolated) +
                    " isolated node(s); treating them as inactive slots");
  }
  if (populated == 0) return;  // nothing to connect
  std::vector<bool> seen(n, false);
  std::vector<std::uint32_t> stack{start};
  seen[start] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (const std::uint32_t v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  if (visited != populated) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "overlay is disconnected: reached " +
                    std::to_string(visited) + " of " +
                    std::to_string(populated) + " non-isolated nodes");
  }
}

// ----------------------------------------------------- degree-conservation
void check_degree_conservation(const LintRule& rule, const LintContext& ctx,
                               std::vector<LintFinding>& findings) {
  const auto now = ctx.graph->degree_multiset();
  const auto then = ctx.baseline->degree_multiset();
  if (now == then) return;
  if (now.size() != then.size()) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "node count changed: " + std::to_string(then.size()) +
                    " -> " + std::to_string(now.size()));
    return;
  }
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    if (now[i] != then[i]) ++diverged;
  }
  add_finding(findings, rule.name, LintSeverity::kError,
              "degree multiset diverged from baseline at " +
                  std::to_string(diverged) + " of " +
                  std::to_string(now.size()) + " positions");
}

// ----------------------------------------------------- prop-g-isomorphism
void check_prop_g_isomorphism(const LintRule& rule, const LintContext& ctx,
                              std::vector<LintFinding>& findings) {
  // Slot level: PROP-G never edits the logical graph, so the edge sets
  // must be identical (not merely isomorphic).
  auto canon = [](const SnapshotGraph& g) {
    std::vector<SnapshotGraph::Edge> edges = g.edges;
    for (auto& e : edges) {
      if (e.first > e.second) std::swap(e.first, e.second);
    }
    std::sort(edges.begin(), edges.end());
    return edges;
  };
  if (canon(*ctx.graph) != canon(*ctx.baseline)) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "slot-level edge set differs from baseline (PROP-G must "
                "leave the logical graph untouched)");
    return;
  }
  if (ctx.placement == nullptr || ctx.baseline_placement == nullptr) {
    return;
  }
  // Host level: phi(h) = host now occupying the slot h occupied before
  // must map the old host-labelled edge set exactly onto the new one.
  const Placement& before = *ctx.baseline_placement;
  const Placement& after = *ctx.placement;
  if (before.slot_capacity() != after.slot_capacity()) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "placement slot capacities differ between snapshots");
    return;
  }
  auto labelled = [&](const SnapshotGraph& g, const Placement& p,
                      std::vector<HostEdge>& out) {
    out.reserve(g.edges.size());
    for (const auto& e : g.edges) {
      if (e.first >= p.slot_capacity() || e.second >= p.slot_capacity() ||
          !p.slot_bound(e.first) || !p.slot_bound(e.second)) {
        return false;
      }
      const NodeId a = p.host_of(e.first);
      const NodeId b = p.host_of(e.second);
      out.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::sort(out.begin(), out.end());
    return true;
  };
  std::vector<HostEdge> edges_before;
  std::vector<HostEdge> edges_after;
  if (!labelled(*ctx.baseline, before, edges_before) ||
      !labelled(*ctx.graph, after, edges_after)) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "an overlay edge endpoint has no bound host");
    return;
  }
  for (SlotId s = 0; s < before.slot_capacity(); ++s) {
    if (before.slot_bound(s) != after.slot_bound(s)) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "slot " + std::to_string(s) +
                      " changed bound state between snapshots");
      return;
    }
  }
  const auto [hosts, phi] = placement_bijection(before, after);
  if (!isomorphic_via(edges_before, edges_after, hosts, phi)) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "host-level graphs are not isomorphic under the "
                "placement bijection");
  }
}

// ------------------------------------------------------ placement-bijection
void check_placement_bijection(const LintRule& rule, const LintContext& ctx,
                               std::vector<LintFinding>& findings) {
  const Placement& p = *ctx.placement;
  std::size_t bound = 0;
  for (SlotId s = 0; s < p.slot_capacity(); ++s) {
    if (!p.slot_bound(s)) continue;
    ++bound;
    const NodeId h = p.host_of(s);
    if (h >= p.host_capacity()) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "slot " + std::to_string(s) + " bound to host " +
                      std::to_string(h) + " outside host capacity");
      continue;
    }
    if (!p.host_bound(h) || p.slot_of(h) != s) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "slot " + std::to_string(s) + " -> host " +
                      std::to_string(h) +
                      " has no matching reverse binding");
    }
  }
  for (NodeId h = 0; h < p.host_capacity(); ++h) {
    if (!p.host_bound(h)) continue;
    const SlotId s = p.slot_of(h);
    if (s >= p.slot_capacity() || !p.slot_bound(s) || p.host_of(s) != h) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "host " + std::to_string(h) + " -> slot " +
                      std::to_string(s) +
                      " has no matching forward binding");
    }
  }
  if (bound != p.bound_count()) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "bound_count() says " + std::to_string(p.bound_count()) +
                    " but " + std::to_string(bound) +
                    " slots are actually bound");
  }
}

// ----------------------------------------------------- chord-monotonicity
void check_chord_monotonicity(const LintRule& rule, const LintContext& ctx,
                              std::vector<LintFinding>& findings) {
  const ChordRing& ring = *ctx.chord;
  const std::size_t n = ring.size();
  std::vector<SlotId> order(n);
  for (SlotId s = 0; s < n; ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](SlotId a, SlotId b) {
    return ring.id_of(a) < ring.id_of(b);
  });
  for (std::size_t i = 1; i < n; ++i) {
    if (ring.id_of(order[i - 1]) == ring.id_of(order[i])) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "duplicate chord id shared by slots " +
                      std::to_string(order[i - 1]) + " and " +
                      std::to_string(order[i]));
      return;  // the ring order is ill-defined past this point
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const SlotId s = order[i];
    const SlotId expect = order[(i + 1) % n];
    if (ring.ring_successor(s) != expect) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "ring_successor(" + std::to_string(s) +
                      ") skips the next id clockwise");
    }
    if (ring.successor_of(ring.id_of(s)) != s) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "successor_of(id_of(" + std::to_string(s) +
                      ")) does not resolve to the slot itself");
    }
  }
  for (SlotId s = 0; s < n; ++s) {
    const auto succ = ring.successors(s);
    for (std::size_t k = 0; k < succ.size(); ++k) {
      if (succ[k] != ring.ring_successor(s, k + 1)) {
        add_finding(findings, rule.name, LintSeverity::kError,
                    "successor list of slot " + std::to_string(s) +
                        " diverges from the ring at position " +
                        std::to_string(k));
        break;
      }
    }
    // With PNS each finger is drawn from a candidate window, so strict
    // clockwise monotonicity only holds for plain Chord tables.
    if (ring.config().pns_candidates > 1) continue;
    const auto fingers = ring.fingers(s);
    DhtId prev = 0;
    for (std::size_t k = 0; k < fingers.size(); ++k) {
      if (fingers[k] == s) {
        add_finding(findings, rule.name, LintSeverity::kError,
                    "slot " + std::to_string(s) +
                        " lists itself as a finger");
        break;
      }
      const DhtId dist =
          clockwise_distance(ring.id_of(s), ring.id_of(fingers[k]));
      if (k > 0 && dist <= prev) {
        add_finding(findings, rule.name, LintSeverity::kError,
                    "finger table of slot " + std::to_string(s) +
                        " is not clockwise-monotone at entry " +
                        std::to_string(k));
        break;
      }
      prev = dist;
    }
  }
}

// ----------------------------------------------------------- can-tiling
void check_can_tiling(const LintRule& rule, const LintContext& ctx,
                      std::vector<LintFinding>& findings) {
  const CanSpace& space = *ctx.can;
  const std::size_t n = space.size();
  double volume = 0.0;
  for (SlotId s = 0; s < n; ++s) {
    const CanZone& z = space.zone(s);
    for (std::size_t d = 0; d < kCanDims; ++d) {
      if (z.lo[d] >= z.hi[d] || z.hi[d] > kCanSpan) {
        add_finding(findings, rule.name, LintSeverity::kError,
                    "zone " + std::to_string(s) +
                        " is degenerate in dimension " +
                        std::to_string(d));
      }
    }
    volume += z.volume_fraction();
  }
  if (std::abs(volume - 1.0) > 1e-9) {
    add_finding(findings, rule.name, LintSeverity::kError,
                "zone volumes sum to " + std::to_string(volume) +
                    ", not 1 (coverage gap or overlap)");
  }
  auto overlap = [](CanCoord alo, CanCoord ahi, CanCoord blo,
                    CanCoord bhi) { return alo < bhi && blo < ahi; };
  for (SlotId a = 0; a < n; ++a) {
    for (SlotId b = a + 1; b < n; ++b) {
      const CanZone& za = space.zone(a);
      const CanZone& zb = space.zone(b);
      bool all = true;
      for (std::size_t d = 0; d < kCanDims; ++d) {
        all = all && overlap(za.lo[d], za.hi[d], zb.lo[d], zb.hi[d]);
      }
      if (all) {
        add_finding(findings, rule.name, LintSeverity::kError,
                    "zones " + std::to_string(a) + " and " +
                        std::to_string(b) + " overlap");
      }
      const bool adj = zones_adjacent(za, zb);
      const auto na = space.neighbors(a);
      const auto nb = space.neighbors(b);
      const bool a_lists_b =
          std::find(na.begin(), na.end(), b) != na.end();
      const bool b_lists_a =
          std::find(nb.begin(), nb.end(), a) != nb.end();
      if (adj != a_lists_b || adj != b_lists_a) {
        add_finding(findings, rule.name, LintSeverity::kError,
                    "neighbor lists of zones " + std::to_string(a) +
                        " and " + std::to_string(b) +
                        " disagree with geometric adjacency");
      }
    }
  }
}

// ------------------------------------------------------ partition-closure
void check_partition_closure(const LintRule& rule, const LintContext& ctx,
                             std::vector<LintFinding>& findings) {
  const PartitionView& view = *ctx.partition;
  if (view.live_domains.empty()) return;  // no window open: vacuous
  const auto side = [](const std::vector<std::uint32_t>& dom, SlotId s,
                       std::uint32_t d) {
    return s < dom.size() && dom[s] == d;
  };
  for (const std::uint32_t d : view.live_domains) {
    // (a) Side stability: a slot bound at window entry and bound now
    // must not have crossed the cut — every negotiation leg consults
    // deliver(), so no exchange can move a host across an open
    // partition. Slots unbound at either end are mid-churn; skip.
    const std::size_t slots = std::min(view.slot_domain.size(),
                                       view.baseline_slot_domain.size());
    for (SlotId s = 0; s < slots; ++s) {
      if (view.slot_domain[s] == PartitionView::kUnbound ||
          view.baseline_slot_domain[s] == PartitionView::kUnbound) {
        continue;
      }
      const bool was_inside = view.baseline_slot_domain[s] == d;
      const bool is_inside = view.slot_domain[s] == d;
      if (was_inside != is_inside) {
        add_finding(findings, rule.name, LintSeverity::kError,
                    "slot " + std::to_string(s) + " moved " +
                        (was_inside ? "out of" : "into") +
                        " stub domain " + std::to_string(d) +
                        " while its partition window is open");
      }
    }
    // (b) Cut closure: the crossing-edge count is non-increasing
    // inside the window. Exchanges preserve it edge-for-edge and
    // deliver()-gated repair never adds a crossing edge; only
    // departures can shrink it.
    if (view.baseline_graph == nullptr) continue;
    const auto cut_size = [&](const SnapshotGraph& g,
                              const std::vector<std::uint32_t>& dom) {
      std::size_t crossing = 0;
      for (const auto& e : g.edges) {
        if (side(dom, e.first, d) != side(dom, e.second, d)) ++crossing;
      }
      return crossing;
    };
    const std::size_t before =
        cut_size(*view.baseline_graph, view.baseline_slot_domain);
    const std::size_t now = cut_size(*ctx.graph, view.slot_domain);
    if (now > before) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "cut of stub domain " + std::to_string(d) + " grew from " +
                      std::to_string(before) + " to " +
                      std::to_string(now) +
                      " crossing edge(s) inside an open partition window");
    }
  }
}

// ------------------------------------------------------ negotiation-locks
void check_negotiation_locks(const LintRule& rule, const LintContext& ctx,
                             std::vector<LintFinding>& findings) {
  const NegotiationLockView& view = *ctx.locks;
  const std::size_t n = view.peer.size();
  for (SlotId u = 0; u < n; ++u) {
    const SlotId v = view.peer[u];
    if (v == kInvalidSlot) continue;
    if (v == u) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "slot " + std::to_string(u) +
                      " is negotiation-locked with itself");
      continue;
    }
    if (v >= n || view.peer[v] != u) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "asymmetric negotiation lock: slot " + std::to_string(u) +
                      " is locked with " + std::to_string(v) +
                      " but not vice versa");
      continue;
    }
    if (u < view.active.size() && !view.active[u]) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "inactive slot " + std::to_string(u) +
                      " still holds a negotiation lock with " +
                      std::to_string(v));
    }
    // Pair checks once, from the lower endpoint. The initiator's
    // pending event (commit, retransmission or abort) is the only
    // thing that ever releases a held lock besides node departure; a
    // pair where neither endpoint owns one is orphaned forever.
    if (u > v) continue;
    const auto pending = [&](SlotId s) {
      return s < view.has_pending.size() && view.has_pending[s];
    };
    if (!pending(u) && !pending(v)) {
      add_finding(findings, rule.name, LintSeverity::kError,
                  "negotiation lock " + std::to_string(u) + "—" +
                      std::to_string(v) +
                      " has no pending event on either endpoint; it can "
                      "never be released");
    }
  }
}

// The catalog. Row order is the order --list-rules prints, a run audits
// in and findings come out in.
constexpr LintRule kLintRules[] = {
    {"edge-range", "every edge endpoint names a node inside [0, nodes)",
     has_graph, check_edge_range},
    {"no-self-loops", "no overlay edge connects a node to itself",
     has_graph, check_no_self_loops},
    {"no-parallel-edges", "no undirected edge appears twice",
     has_graph, check_no_parallel_edges},
    {"connectivity",
     "all non-isolated nodes form one connected component "
     "(isolated nodes are reported as warnings)",
     has_graph, check_connectivity},
    {"degree-conservation",
     "PROP-O invariant: the sorted degree multiset matches the "
     "baseline snapshot",
     has_baseline, check_degree_conservation},
    {"prop-g-isomorphism",
     "PROP-G invariant (Theorem 2): the overlay equals the baseline "
     "slot-for-slot; with placements, the host-level graphs are "
     "isomorphic via the placement bijection",
     has_baseline, check_prop_g_isomorphism},
    {"placement-bijection",
     "slot->host and host->slot maps are mutually inverse partial "
     "bijections",
     has_placement, check_placement_bijection},
    {"chord-monotonicity",
     "Chord ring ids are distinct, successor lists follow the ring "
     "order, and finger tables step monotonically clockwise",
     has_chord, check_chord_monotonicity},
    {"can-tiling",
     "CAN zones are well-formed, pairwise disjoint, cover the torus "
     "exactly, and neighbor lists mirror geometric adjacency",
     has_can, check_can_tiling},
    {"partition-closure",
     "while a stub-domain partition window is open, no slot's bound "
     "host changes partition side and the number of overlay edges "
     "crossing the cut never grows",
     has_partition, check_partition_closure},
    {"negotiation-locks",
     "two-phase negotiation locks are symmetric, distinct, held only "
     "by active slots, and always owned by a pending release event "
     "(no slot can be left locked after the event queue drains)",
     has_locks, check_negotiation_locks},
};

}  // namespace

std::vector<std::uint32_t> slot_domains_of(
    const Placement& placement,
    const std::vector<std::uint32_t>& host_domain) {
  std::vector<std::uint32_t> out(placement.slot_capacity(),
                                 PartitionView::kUnbound);
  for (SlotId s = 0; s < placement.slot_capacity(); ++s) {
    if (!placement.slot_bound(s)) continue;
    const NodeId h = placement.host_of(s);
    out[s] = h < host_domain.size() ? host_domain[h]
                                    : PartitionView::kNoDomain;
  }
  return out;
}

std::span<const LintRule> lint_rules() { return kLintRules; }

const LintRule* find_lint_rule(std::string_view name) {
  for (const LintRule& rule : kLintRules) {
    if (rule.name == name) return &rule;
  }
  return nullptr;
}

}  // namespace propsim
