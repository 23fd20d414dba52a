#include "baselines/ltm.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace propsim {
namespace {

/// Charges the TTL-2 detector flood to the traffic counter: one message
/// per edge traversal in the two-hop neighborhood.
void charge_detector(OverlayNetwork& net, SlotId u) {
  std::uint64_t messages = net.graph().degree(u);
  for (const SlotId i : net.graph().neighbors(u)) {
    messages += net.graph().degree(i);
  }
  net.traffic().count(net.placement().host_of(u), MessageKind::kProbe,
                      messages);
}

/// At most this many link replacements per round per node.
constexpr std::size_t kMaxAddsPerRound = 1;

}  // namespace

std::size_t ltm_round(OverlayNetwork& net, SlotId u) {
  const LogicalGraph& g = net.graph();
  if (!g.is_active(u) || g.degree(u) == 0) return 0;
  charge_detector(net, u);
  std::size_t changed = 0;

  // --- Cut phase: drop direct links dominated by a two-hop detour. ---
  // Work on a snapshot of the neighbor list; the condition is re-checked
  // against the live graph before every cut so cascaded cuts stay safe
  // (the detour edge is still present at cut time, keeping u and j in the
  // same component — the analogue of Theorem 1's path argument).
  std::vector<SlotId> snapshot(g.neighbors(u).begin(), g.neighbors(u).end());
  for (const SlotId j : snapshot) {
    if (!g.has_edge(u, j)) continue;  // already cut this round
    if (g.degree(u) <= kLtmMinDegree) break;
    if (g.degree(j) <= kLtmMinDegree) continue;
    const double direct = net.slot_latency(u, j);
    // (u, j) is "low productive and redundant" when it is the longest
    // edge of a logical triangle u-i-j: the flood still reaches j through
    // i, and both remaining edges are faster. (With shortest-path
    // latencies the naive detour test d(u,i)+d(i,j) < d(u,j) can never
    // fire — triangle inequality — so LTM's published rule compares the
    // edge against the two detour legs individually.)
    bool dominated = false;
    for (const SlotId i : g.neighbors(u)) {
      if (i == j || !g.has_edge(i, j)) continue;
      if (direct > net.slot_latency(u, i) &&
          direct >= net.slot_latency(i, j)) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      net.remove_edge(u, j);
      net.traffic().count(net.placement().host_of(u),
                          MessageKind::kExchangeCtrl);
      ++changed;
    }
  }

  // --- Add phase: connect to the closest two-hop non-neighbor. ---
  for (std::size_t add = 0; add < kMaxAddsPerRound; ++add) {
    SlotId best = kInvalidSlot;
    double best_latency = std::numeric_limits<double>::infinity();
    for (const SlotId i : g.neighbors(u)) {
      for (const SlotId k : g.neighbors(i)) {
        if (k == u || g.has_edge(u, k)) continue;
        const double lat = net.slot_latency(u, k);  // direct probe
        if (lat < best_latency) {
          best = k;
          best_latency = lat;
        }
      }
    }
    if (best == kInvalidSlot) break;
    // Connect only when the candidate actually improves on the current
    // farthest neighbor (or the cut phase left us short of links).
    double farthest = 0.0;
    for (const SlotId i : g.neighbors(u)) {
      farthest = std::max(farthest, net.slot_latency(u, i));
    }
    const bool short_of_links = g.degree(u) < kLtmMinDegree;
    if (!short_of_links && best_latency >= farthest) break;
    net.add_edge(u, best);
    net.traffic().count(net.placement().host_of(u),
                        MessageKind::kExchangeCtrl);
    ++changed;
  }
  if (obs::EventBus* bus = net.trace()) {
    bus->emit(obs::TraceEventKind::kLtmRound, u, 0,
              static_cast<double>(g.degree(u)), changed);
  }
  return changed;
}

LtmEngine::LtmEngine(OverlayNetwork& net, Scheduler& sim, double interval_s,
                     std::uint64_t seed)
    : net_(net), sim_(sim), interval_s_(interval_s), rng_(seed) {
  PROPSIM_CHECK(interval_s_ > 0.0);
}

void LtmEngine::start() {
  PROPSIM_CHECK(!started_);
  started_ = true;
  pending_.assign(net_.graph().slot_count(), kInvalidEvent);
  for (const SlotId s : net_.graph().active_slots()) {
    pending_[s] = sim_.schedule_in(rng_.uniform_double(0.0, interval_s_),
                                   [this, s] { on_timer(s); });
  }
}

void LtmEngine::stop() {
  for (EventId& id : pending_) {
    if (id != kInvalidEvent) {
      sim_.cancel(id);
      id = kInvalidEvent;
    }
  }
  started_ = false;
}

void LtmEngine::on_timer(SlotId s) {
  pending_[s] = kInvalidEvent;
  if (!net_.graph().is_active(s)) return;
  ++rounds_;
  links_changed_ += ltm_round(net_, s);
  pending_[s] = sim_.schedule_in(interval_s_, [this, s] { on_timer(s); });
}

}  // namespace propsim
