#include "workload/churn.h"

#include <algorithm>

namespace propsim {

ChurnProcess::ChurnProcess(OverlayNetwork& net, Scheduler& sim,
                           PropEngine* engine,
                           const GnutellaConfig& overlay_config,
                           const ChurnParams& params,
                           std::vector<NodeId> spares, std::uint64_t seed)
    : net_(net),
      sim_(sim),
      engine_(engine),
      overlay_config_(overlay_config),
      params_(params),
      spares_(std::move(spares)),
      rng_(seed) {
  PROPSIM_CHECK(params_.end_s >= params_.start_s);
}

void ChurnProcess::start() {
  for (const Arrival kind : {Arrival::kJoin, Arrival::kLeave, Arrival::kFail}) {
    if (rate_of(kind) > 0.0) schedule_arrival(kind, params_.start_s);
  }
}

double ChurnProcess::rate_of(Arrival kind) const {
  switch (kind) {
    case Arrival::kJoin:
      return params_.join_rate_per_s;
    case Arrival::kLeave:
      return params_.leave_rate_per_s;
    case Arrival::kFail:
      return params_.fail_rate_per_s;
  }
  return 0.0;
}

void ChurnProcess::schedule_arrival(Arrival kind, double from_s) {
  // The first arrival obeys the same end_s clamp as every later one;
  // without it a short churn window could fire one stray event past its
  // end.
  const double next = from_s + rng_.exponential(1.0 / rate_of(kind));
  if (next > params_.end_s) return;
  sim_.schedule_at(next, [this, kind] {
    switch (kind) {
      case Arrival::kJoin:
        do_join();
        break;
      case Arrival::kLeave:
        do_leave();
        break;
      case Arrival::kFail:
        do_fail();
        break;
    }
    schedule_arrival(kind, sim_.now());
  });
}

bool ChurnProcess::do_join() {
  if (spares_.empty()) return false;
  const NodeId host = spares_.back();
  spares_.pop_back();
  const SlotId joiner = gnutella_join(net_, overlay_config_, host, rng_);
  if (engine_ != nullptr) {
    const auto neigh = net_.graph().neighbors(joiner);
    engine_->node_joined(joiner,
                         std::vector<SlotId>(neigh.begin(), neigh.end()));
  }
  ++joins_;
  return true;
}

bool ChurnProcess::do_leave() {
  const auto actives = net_.graph().active_slots();
  if (actives.size() <= kMinPopulation) return false;
  // Uniformly random departure, retried a few times if the victim is a
  // cut vertex whose removal would partition the overlay (real peers can
  // vanish arbitrarily, but the paper's protocols assume the overlay's
  // own repair keeps it connected; retrying models that repair without
  // building a full join-stabilization pipeline — see DESIGN.md).
  for (int attempt = 0; attempt < 8; ++attempt) {
    const SlotId victim =
        actives[static_cast<std::size_t>(rng_.uniform(actives.size()))];
    const auto neigh = net_.graph().neighbors(victim);
    const std::vector<SlotId> former(neigh.begin(), neigh.end());
    const NodeId host = net_.leave(victim);
    if (!net_.graph().active_subgraph_connected()) {
      // Roll back: reconnect exactly as before.
      net_.rejoin(victim, host);
      for (const SlotId nb : former) net_.add_edge(victim, nb);
      continue;
    }
    if (engine_ != nullptr) engine_->node_left(victim, former);
    spares_.push_back(host);
    ++leaves_;
    if (obs::EventBus* bus = net_.trace()) {
      bus->emit(obs::TraceEventKind::kLeave, victim, host, 0.0,
                former.size());
    }
    return true;
  }
  return false;
}

}  // namespace propsim

namespace propsim {

void ChurnProcess::add_repair_edge(SlotId a, SlotId b) {
  net_.add_edge(a, b);
  ++repair_links_;
  if (engine_ != nullptr) engine_->edge_added(a, b);
}

bool ChurnProcess::do_fail() {
  const auto actives = net_.graph().active_slots();
  if (actives.size() <= kMinPopulation) return false;
  const SlotId victim =
      actives[static_cast<std::size_t>(rng_.uniform(actives.size()))];
  return fail_slot(victim);
}

bool ChurnProcess::fail_slot(SlotId victim) {
  if (!net_.graph().is_active(victim)) return false;
  if (net_.graph().active_slots().size() <= kMinPopulation) {
    return false;
  }
  const auto neigh = net_.graph().neighbors(victim);
  const std::vector<SlotId> former(neigh.begin(), neigh.end());

  // The crash itself: no handoff, edges just vanish.
  const NodeId host = net_.leave(victim);
  if (engine_ != nullptr) engine_->node_left(victim, former);
  spares_.push_back(host);
  ++failures_;
  if (obs::EventBus* bus = net_.trace()) {
    bus->emit(obs::TraceEventKind::kFail, victim, host, 0.0, former.size());
  }

  // Survivor repair, as deployed unstructured peers do on keepalive
  // timeout: every orphaned neighbor below the attach floor re-dials a
  // random peer it is not yet connected to. Under fault injection each
  // dial is a real message — a lost one burns an attempt, so repair
  // slows down with loss and cannot cross an open partition.
  const auto pool = net_.graph().active_slots();
  for (const SlotId orphan : former) {
    std::size_t attempts = 0;
    while (net_.graph().degree(orphan) < overlay_config_.attach_links &&
           attempts < 64) {
      ++attempts;
      const SlotId peer =
          pool[static_cast<std::size_t>(rng_.uniform(pool.size()))];
      if (peer == orphan || net_.graph().has_edge(orphan, peer)) continue;
      if (faults_ != nullptr &&
          !faults_->deliver(net_.placement().host_of(orphan),
                            net_.placement().host_of(peer))) {
        continue;
      }
      add_repair_edge(orphan, peer);
    }
  }

  // Random re-dials almost always restore connectivity; when they do
  // not (the victim was a cut vertex toward a small component), stitch
  // each stray component back deterministically.
  if (!net_.graph().active_subgraph_connected()) {
    std::vector<SlotId> component(net_.graph().slot_count(), kInvalidSlot);
    std::vector<SlotId> stack;
    std::vector<SlotId> roots;
    for (const SlotId s : pool) {
      if (component[s] != kInvalidSlot) continue;
      roots.push_back(s);
      stack.push_back(s);
      component[s] = s;
      while (!stack.empty()) {
        const SlotId u = stack.back();
        stack.pop_back();
        for (const SlotId v : net_.graph().neighbors(u)) {
          if (component[v] == kInvalidSlot) {
            component[v] = s;
            stack.push_back(v);
          }
        }
      }
    }
    for (std::size_t r = 1; r < roots.size(); ++r) {
      add_repair_edge(roots[r], roots[0]);
    }
  }
  return true;
}

}  // namespace propsim
