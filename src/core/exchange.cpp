#include "core/exchange.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace propsim {
namespace {

/// Neighbors of `self` that may legally move to `other` in a PROP-O
/// exchange: not on the probe path, not the counterpart itself, and not
/// already adjacent to the counterpart (no duplicate edges), appended to
/// `out` in neighbour order, with each one's stored weight d(self, x)
/// appended to `out_ms`. The exclusions are marked once, so each
/// candidate costs one O(1) test.
void transferable_neighbors(const OverlayNetwork& net, SlotId self,
                            SlotId other, std::span<const SlotId> path,
                            std::vector<SlotId>& out,
                            std::vector<double>& out_ms) {
  const LogicalGraph& g = net.graph();
  SlotMarks& excluded = net.scratch_marks();
  excluded.reset(g.slot_count());
  excluded.insert(other);
  for (const SlotId p : path) excluded.insert(p);
  for (const SlotId y : g.neighbors(other)) excluded.insert(y);
  const std::span<const SlotId> neighbors = g.neighbors(self);
  const std::span<const double> weights = net.neighbor_latencies(self);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (excluded.contains(neighbors[i])) continue;
    out.push_back(neighbors[i]);
    out_ms.push_back(weights[i]);
  }
}

/// Keeps the k candidates with the largest latency improvement
/// d(self, x) - d(other, x), i.e. those much closer to the counterpart,
/// and adds each kept gain to `var` in kept order. d(self, x) is the
/// stored weight `candidate_ms` carries, so only d(other, x) is probed.
/// Each candidate is scored once, into `scored`; ties break on the
/// smaller slot id, so the order is a strict total order and the
/// selection is deterministic.
void select_greedy(const OverlayNetwork& net, SlotId other,
                   std::vector<SlotId>& candidates,
                   std::span<const double> candidate_ms, std::size_t k,
                   double& var, std::vector<PlanScratch::Scored>& scored) {
  using Scored = PlanScratch::Scored;
  scored.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const SlotId c = candidates[i];
    scored.push_back({candidate_ms[i] - net.slot_latency(other, c), c});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.gain != b.gain) return a.gain > b.gain;
              return a.slot < b.slot;
            });
  candidates.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    candidates[i] = scored[i].slot;
    var += scored[i].gain;
  }
}

void select_random(std::vector<SlotId>& candidates, std::size_t k, Rng& rng) {
  rng.shuffle(candidates);
  candidates.resize(k);
  std::sort(candidates.begin(), candidates.end());
}

/// Var of a PROP-O plan from its transfer sets, one running sum over
/// from_u then from_v.
double transferred_gain(const OverlayNetwork& net, const ExchangePlan& plan) {
  double var = 0.0;
  for (const SlotId a : plan.from_u) {
    var += net.slot_latency(plan.u, a) - net.slot_latency(plan.v, a);
  }
  for (const SlotId b : plan.from_v) {
    var += net.slot_latency(plan.v, b) - net.slot_latency(plan.u, b);
  }
  return var;
}

#ifdef PROPSIM_PARANOID
/// transferable_neighbors the straightforward way, one has_edge scan and
/// one path scan per candidate: the paranoid cross-check's reference.
std::vector<SlotId> transferable_by_scan(const OverlayNetwork& net,
                                         SlotId self, SlotId other,
                                         std::span<const SlotId> path) {
  std::vector<SlotId> out;
  for (const SlotId x : net.graph().neighbors(self)) {
    if (x == other) continue;
    if (std::find(path.begin(), path.end(), x) != path.end()) continue;
    if (net.graph().has_edge(other, x)) continue;
    out.push_back(x);
  }
  return out;
}
#endif

}  // namespace

double prop_g_var(const OverlayNetwork& net, SlotId u, SlotId v) {
  PROPSIM_CHECK(u != v);
  const LatencyOracle& oracle = net.oracle();
  const NodeId host_u = net.placement().host_of(u);
  const NodeId host_v = net.placement().host_of(v);

  // Before: each host sums latency to the hosts of its slot's neighbors.
  const double before = net.neighbor_latency_sum(u) +
                        net.neighbor_latency_sum(v);

  // After the swap host_u serves slot v and vice versa. A neighbor slot
  // that is the counterpart's slot then hosts the *other* peer, so the
  // u—v edge latency (if the slots are adjacent) is unchanged.
  double after = 0.0;
  for (const SlotId i : net.graph().neighbors(v)) {
    const NodeId hi = (i == u) ? host_v : net.placement().host_of(i);
    after += oracle.latency(host_u, hi);
  }
  for (const SlotId i : net.graph().neighbors(u)) {
    const NodeId hi = (i == v) ? host_u : net.placement().host_of(i);
    after += oracle.latency(host_v, hi);
  }
  return before - after;
}

bool plan_prop_o(ExchangePlan& out, PlanScratch& scratch,
                 const OverlayNetwork& net, SlotId u, SlotId v,
                 std::span<const SlotId> path, std::size_t m,
                 SelectionPolicy selection, Rng& rng) {
  PROPSIM_CHECK(u != v);
  PROPSIM_CHECK(m >= 1);
  out.mode = PropMode::kPropO;
  out.u = u;
  out.v = v;
  out.var = 0.0;
  out.from_u.clear();
  out.from_v.clear();
  scratch.from_u_ms.clear();
  scratch.from_v_ms.clear();
  transferable_neighbors(net, u, v, path, out.from_u, scratch.from_u_ms);
  transferable_neighbors(net, v, u, path, out.from_v, scratch.from_v_ms);
#ifdef PROPSIM_PARANOID
  PROPSIM_CHECK(out.from_u == transferable_by_scan(net, u, v, path) &&
                out.from_v == transferable_by_scan(net, v, u, path) &&
                "stamped transferable filter disagrees with has_edge");
#endif
  // Equal-sized sets keep every degree unchanged (Section 3.1: "exchange
  // equal number of connections ... so the topology can maintain its
  // essential features").
  const std::size_t k = std::min({m, out.from_u.size(), out.from_v.size()});
  if (k == 0) return false;

  // Var (eq. 2): latency mass dropped minus latency mass picked up.
  switch (selection) {
    case SelectionPolicy::kGreedy:
      // Sums the gains selection already scored, from_u's then from_v's
      // in plan order: the additions transferred_gain makes, so the same
      // bits.
      select_greedy(net, v, out.from_u, scratch.from_u_ms, k, out.var,
                    scratch.scored);
      select_greedy(net, u, out.from_v, scratch.from_v_ms, k, out.var,
                    scratch.scored);
#ifdef PROPSIM_PARANOID
      PROPSIM_CHECK(std::bit_cast<std::uint64_t>(out.var) ==
                        std::bit_cast<std::uint64_t>(
                            transferred_gain(net, out)) &&
                    "greedy Var disagrees with the per-element sum");
#endif
      break;
    case SelectionPolicy::kRandom:
      select_random(out.from_u, k, rng);
      select_random(out.from_v, k, rng);
      out.var = transferred_gain(net, out);
      break;
  }
  return true;
}

void apply_exchange(OverlayNetwork& net, const ExchangePlan& plan) {
  switch (plan.mode) {
    case PropMode::kPropG:
      net.swap_hosts(plan.u, plan.v);
      return;
    case PropMode::kPropO: {
      PROPSIM_CHECK(plan.from_u.size() == plan.from_v.size());
      for (const SlotId a : plan.from_u) {
        net.remove_edge(plan.u, a);
        net.add_edge(plan.v, a);
      }
      for (const SlotId b : plan.from_v) {
        net.remove_edge(plan.v, b);
        net.add_edge(plan.u, b);
      }
      return;
    }
  }
  PROPSIM_CHECK(false && "unknown exchange mode");
}

double measured_gain(const OverlayNetwork& net, const ExchangePlan& plan) {
  const double before =
      net.neighbor_latency_sum(plan.u) + net.neighbor_latency_sum(plan.v);
  OverlayNetwork scratch = net;
  apply_exchange(scratch, plan);
  const double after = scratch.neighbor_latency_sum(plan.u) +
                       scratch.neighbor_latency_sum(plan.v);
  return before - after;
}

}  // namespace propsim
