#include "core/exchange.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace propsim {
namespace {

/// Calls `visit(x, d(self, x))` for each neighbour x of `self` that may
/// legally move to `other` in a PROP-O exchange: not on the probe path,
/// not the counterpart itself, and not already adjacent to the
/// counterpart (no duplicate edges). Visits in neighbour order and passes
/// the stored weight, and returns how many it visited. The exclusions
/// are marked once, so each candidate costs one O(1) test.
template <typename Visit>
std::size_t for_each_transferable(const OverlayNetwork& net, SlotId self,
                                  SlotId other, std::span<const SlotId> path,
                                  Visit&& visit) {
  const LogicalGraph& g = net.graph();
  SlotMarks& excluded = net.scratch_marks();
  excluded.reset(g.slot_count());
  excluded.insert(other);
  for (const SlotId p : path) excluded.insert(p);
  for (const SlotId y : g.neighbors(other)) excluded.insert(y);
  const std::span<const SlotId> neighbors = g.neighbors(self);
  const std::span<const double> weights = net.neighbor_latencies(self);
  std::size_t visited = 0;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (excluded.contains(neighbors[i])) continue;
    visit(neighbors[i], weights[i]);
    ++visited;
  }
  return visited;
}

using Scored = PlanScratch::Scored;

/// Greedy order: larger gain first, ties on the smaller slot id, so the
/// order is a strict total order and the selection is deterministic.
bool ranks_before(const Scored& a, const Scored& b) {
  if (a.gain != b.gain) return a.gain > b.gain;
  return a.slot < b.slot;
}

/// Keeps in `best` the `cap` transferable neighbours of `self` with the
/// largest latency improvement d(self, x) - d(other, x), i.e. those much
/// closer to the counterpart, sorted in greedy order. d(self, x) is the
/// stored weight, so only d(other, x) is probed, once per candidate.
/// Once `best` is full, one comparison with its last entry rejects a
/// candidate that cannot enter. Returns the number of transferable
/// neighbours, kept or not. `cap` must be at least 1.
std::size_t keep_best(const OverlayNetwork& net, SlotId self, SlotId other,
                      std::span<const SlotId> path, std::size_t cap,
                      std::vector<Scored>& best) {
  best.clear();
  return for_each_transferable(
      net, self, other, path, [&](SlotId c, double self_ms) {
        const Scored s{self_ms - net.slot_latency(other, c), c};
        std::size_t i = best.size();
        if (i < cap) {
          best.push_back(s);
        } else if (ranks_before(s, best.back())) {
          --i;  // s displaces the last kept entry
        } else {
          return;
        }
        for (; i > 0 && ranks_before(s, best[i - 1]); --i) {
          best[i] = best[i - 1];
        }
        best[i] = s;
      });
}

/// Greedy PROP-O planning, one pass per side. u's side is scored first;
/// when it has no transferable neighbour v's side is never scored. Var
/// sums the kept gains, from_u's then from_v's in plan order: the
/// additions transferred_gain makes, so the same bits.
bool plan_greedy(ExchangePlan& out, PlanScratch& scratch,
                 const OverlayNetwork& net, std::span<const SlotId> path,
                 std::size_t m) {
  const LogicalGraph& g = net.graph();
  // k = min(m, |from_u|, |from_v|) never exceeds either degree, so no
  // side needs more than `cap` entries, and v's side no more than u's
  // side can match.
  const std::size_t cap = std::min({m, g.degree(out.u), g.degree(out.v)});
  if (cap == 0) return false;
  const std::size_t n_u =
      keep_best(net, out.u, out.v, path, cap, scratch.best_u);
  if (n_u == 0) return false;
  const std::size_t n_v = keep_best(net, out.v, out.u, path,
                                    std::min(cap, n_u), scratch.best_v);
  const std::size_t k = std::min({m, n_u, n_v});
  if (k == 0) return false;
  for (std::size_t i = 0; i < k; ++i) {
    out.from_u.push_back(scratch.best_u[i].slot);
    out.var += scratch.best_u[i].gain;
  }
  for (std::size_t i = 0; i < k; ++i) {
    out.from_v.push_back(scratch.best_v[i].slot);
    out.var += scratch.best_v[i].gain;
  }
  return true;
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

/// Random PROP-O planning: both transferable sets in full, then k of
/// each drawn uniformly, and Var from the kept sets.
bool plan_random(ExchangePlan& out, const OverlayNetwork& net,
                 std::span<const SlotId> path, std::size_t m, Rng& rng) {
  const auto keep = [](std::vector<SlotId>& set) {
    return [&set](SlotId c, double) { set.push_back(c); };
  };
  if (for_each_transferable(net, out.u, out.v, path, keep(out.from_u)) == 0) {
    return false;
  }
  for_each_transferable(net, out.v, out.u, path, keep(out.from_v));
  const std::size_t k = std::min({m, out.from_u.size(), out.from_v.size()});
  if (k == 0) return false;
  select_random(out.from_u, k, rng);
  select_random(out.from_v, k, rng);
  out.var = transferred_gain(net, out);
  return true;
}

#ifdef PROPSIM_PARANOID
/// The transferable set the straightforward way, one has_edge scan and
/// one path scan per candidate.
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

/// plan_prop_o the reference way: transferable sets by scan, greedy
/// selection by a full sort that probes both latencies of every
/// candidate, and Var per element. The paranoid cross-check's reference.
bool reference_plan(ExchangePlan& ref, const OverlayNetwork& net, SlotId u,
                    SlotId v, std::span<const SlotId> path, std::size_t m,
                    SelectionPolicy selection, Rng& rng) {
  ref.u = u;
  ref.v = v;
  ref.from_u = transferable_by_scan(net, u, v, path);
  ref.from_v = transferable_by_scan(net, v, u, path);
  const std::size_t k = std::min({m, ref.from_u.size(), ref.from_v.size()});
  if (k == 0) return false;
  const auto by_gain = [&](SlotId self, SlotId other) {
    return [&net, self, other](SlotId a, SlotId b) {
      return ranks_before(
          {net.slot_latency(self, a) - net.slot_latency(other, a), a},
          {net.slot_latency(self, b) - net.slot_latency(other, b), b});
    };
  };
  switch (selection) {
    case SelectionPolicy::kGreedy:
      std::sort(ref.from_u.begin(), ref.from_u.end(), by_gain(u, v));
      std::sort(ref.from_v.begin(), ref.from_v.end(), by_gain(v, u));
      ref.from_u.resize(k);
      ref.from_v.resize(k);
      break;
    case SelectionPolicy::kRandom:
      select_random(ref.from_u, k, rng);
      select_random(ref.from_v, k, rng);
      break;
  }
  ref.var = transferred_gain(net, ref);
  return true;
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
#ifdef PROPSIM_PARANOID
  Rng reference_rng = rng;
#endif
  // Equal-sized sets of k = min(m, |from_u|, |from_v|) keep every degree
  // unchanged (Section 3.1: "exchange equal number of connections ... so
  // the topology can maintain its essential features"). Var is eq. 2:
  // latency mass dropped minus latency mass picked up.
  bool planned = false;
  switch (selection) {
    case SelectionPolicy::kGreedy:
      planned = plan_greedy(out, scratch, net, path, m);
      break;
    case SelectionPolicy::kRandom:
      planned = plan_random(out, net, path, m, rng);
      break;
  }
#ifdef PROPSIM_PARANOID
  ExchangePlan ref;
  const bool ref_planned =
      reference_plan(ref, net, u, v, path, m, selection, reference_rng);
  PROPSIM_CHECK(planned == ref_planned &&
                (!planned ||
                 (out.from_u == ref.from_u && out.from_v == ref.from_v &&
                  std::bit_cast<std::uint64_t>(out.var) ==
                      std::bit_cast<std::uint64_t>(ref.var))) &&
                "PROP-O plan disagrees with the reference planner");
#endif
  return planned;
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
