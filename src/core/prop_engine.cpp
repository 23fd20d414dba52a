#include "core/prop_engine.h"

#include <algorithm>

namespace propsim {

PropEngine::PropEngine(OverlayNetwork& net, Scheduler& sim,
                       const PropParams& params, std::uint64_t seed)
    : net_(net), sim_(sim), params_(params), rng_(seed) {
  PROPSIM_CHECK(params_.init_timer_s > 0.0);
  PROPSIM_CHECK(params_.nhops >= 1 || params_.random_target);
}

void PropEngine::ensure_state_capacity() {
  if (state_.size() < net_.graph().slot_count()) {
    state_.resize(net_.graph().slot_count());
  }
}

void PropEngine::start() {
  PROPSIM_CHECK(!started_);
  started_ = true;
  ensure_state_capacity();
  effective_m_ = params_.m != 0 ? params_.m
                                : std::max<std::size_t>(
                                      1, net_.graph().min_active_degree());
  for (const SlotId s : net_.graph().active_slots()) {
    init_node(s);
    // Stagger first probes over one timer period so the population does
    // not fire in lockstep.
    schedule_probe(s, rng_.uniform_double(0.0, params_.init_timer_s));
  }
}

void PropEngine::stop() {
  for (NodeState& st : state_) {
    if (st.pending != kInvalidEvent) {
      sim_.cancel(st.pending);
      st.pending = kInvalidEvent;
    }
    st.active = false;
    st.peer = kInvalidSlot;
  }
  started_ = false;
}

void PropEngine::init_node(SlotId s) {
  NodeState& st = state_[s];
  st.queue.initialize(net_.graph().neighbors(s), rng_);
  st.timer = params_.init_timer_s;
  st.trials = 0;
  st.pending = kInvalidEvent;
  st.active = true;
  st.peer = kInvalidSlot;
}

void PropEngine::schedule_probe(SlotId s, double delay) {
  NodeState& st = state_[s];
  PROPSIM_CHECK(st.pending == kInvalidEvent);
  st.pending = sim_.schedule_in(delay, [this, s] { on_probe_timer(s); });
}

void PropEngine::reschedule_sooner(SlotId s, double delay) {
  NodeState& st = state_[s];
  if (st.pending != kInvalidEvent) {
    sim_.cancel(st.pending);
    st.pending = kInvalidEvent;
  }
  schedule_probe(s, delay);
}

void PropEngine::on_probe_timer(SlotId s) {
  NodeState& st = state_[s];
  st.pending = kInvalidEvent;
  if (!st.active) return;
  attempt(s);
  if (st.active && st.pending == kInvalidEvent) {
    schedule_probe(s, st.timer);
  }
}

bool PropEngine::attempt(SlotId u) {
  ensure_state_capacity();
  NodeState& st = state_[u];
  PROPSIM_CHECK(net_.graph().is_active(u));
  if (adversary_ != nullptr && adversary_->sits_out(u)) {
    // Free-riders never spend probe messages; captured eclipse
    // attackers hold still. The probe timer keeps cycling regardless.
    return false;
  }
  ++stats_.attempts;
  ++st.trials;
  obs::EventBus* bus = net_.trace();
  if (bus != nullptr) bus->emit(obs::TraceEventKind::kProbe, u);

  const auto neighbors = net_.graph().neighbors(u);
  if (neighbors.empty()) {
    return false;  // isolated (mid-churn); try again next timer
  }

  // First hop from neighborQ (or uniform when the ablation disables it).
  SlotId first_hop;
  if (params_.use_priority_queue) {
    const auto front = st.queue.front();
    if (!front.has_value() || !net_.graph().has_edge(u, *front)) {
      // Queue drifted from the graph (exchange raced a churn event);
      // rebuild and fall back to a uniform pick.
      st.queue.initialize(neighbors, rng_);
      first_hop = neighbors[static_cast<std::size_t>(
          rng_.uniform(neighbors.size()))];
    } else {
      first_hop = *front;
    }
  } else {
    first_hop =
        neighbors[static_cast<std::size_t>(rng_.uniform(neighbors.size()))];
  }

  // Locate the counterpart v.
  SlotId v = kInvalidSlot;
  std::vector<SlotId> path;
  const SlotId steered = adversary_ != nullptr
                             ? adversary_->eclipse_counterpart(u)
                             : kInvalidSlot;
  if (steered != kInvalidSlot) {
    // Eclipse steering: the attacker aims its exchange at a seat next
    // to the target instead of walking. One direct contact message.
    v = steered;
    path = {u, v};
    net_.traffic().count(net_.placement().host_of(u), MessageKind::kWalk);
  } else if (params_.random_target) {
    const auto actives = net_.graph().active_slots();
    PROPSIM_CHECK(actives.size() >= 2);
    do {
      v = actives[static_cast<std::size_t>(rng_.uniform(actives.size()))];
    } while (v == u);
    path = {u, v};
    net_.traffic().count(net_.placement().host_of(u), MessageKind::kWalk);
  } else {
    auto walk = net_.random_walk(u, first_hop, params_.nhops, rng_);
    net_.traffic().count(net_.placement().host_of(u), MessageKind::kWalk,
                         params_.nhops);
    if (!walk.has_value()) {
      ++stats_.walk_failures;
      if (bus != nullptr) {
        bus->emit(obs::TraceEventKind::kExchangeAbort, u, first_hop, 0.0,
                  static_cast<std::uint64_t>(obs::AbortReason::kWalkFailure));
      }
      handle_failure(u, first_hop);
      return false;
    }
    path = std::move(*walk);
    v = path.back();
    if (bus != nullptr) {
      for (std::size_t i = 1; i < path.size(); ++i) {
        bus->emit(obs::TraceEventKind::kWalkHop, path[i - 1], path[i],
                  net_.slot_latency(path[i - 1], path[i]));
      }
    }
  }

  // Under fault injection every hop toward the counterpart is a real
  // message that can be lost; the first drop kills the trial like a
  // dead-end walk does.
  if (faults_ != nullptr) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (faults_->deliver(net_.placement().host_of(path[i - 1]),
                           net_.placement().host_of(path[i]))) {
        continue;
      }
      ++stats_.walk_failures;
      abort_with_reason(u, first_hop, obs::AbortReason::kMessageLost);
      handle_failure(u, first_hop);
      return false;
    }
  }

  // Plan the exchange and evaluate Var.
  std::optional<ExchangePlan> plan;
  if (params_.mode == PropMode::kPropG) {
    plan = plan_prop_g(net_, u, v);
  } else {
    plan = plan_prop_o(net_, u, v, path, effective_m_, params_.selection,
                       rng_);
  }
  if (!plan.has_value()) {
    if (bus != nullptr) {
      bus->emit(obs::TraceEventKind::kExchangeAbort, u, v, 0.0,
                static_cast<std::uint64_t>(obs::AbortReason::kNoPlan));
    }
    handle_failure(u, first_hop);
    return false;
  }
  ++stats_.planned;
  if (bus != nullptr) {
    bus->emit(obs::TraceEventKind::kExchangeAttempt, u, v, plan->var);
  }
  charge_messages(*plan, path.size() - 1, /*committed=*/false);

  if (gate_var(*plan) <= params_.min_var) {
    ++stats_.rejected;
    if (bus != nullptr) {
      bus->emit(obs::TraceEventKind::kExchangeAbort, u, v, plan->var,
                static_cast<std::uint64_t>(obs::AbortReason::kBelowMinVar));
    }
    handle_failure(u, first_hop);
    return false;
  }

  if (params_.model_message_delays || faults_ != nullptr ||
      adversary_ != nullptr) {
    // The decision travels over the network: commit only after the
    // negotiation round-trips, re-validating against whatever the
    // overlay looks like by then. Fault injection implies message-delay
    // modeling — a lossy network with atomic exchanges would be
    // contradictory — and byzantine peers need the two-phase window
    // their drop/lie behaviors target.
    begin_negotiation(u, first_hop, v, std::move(path), /*retries_used=*/0);
    return false;  // outcome pending
  }

  apply_exchange(net_, *plan);
  if (swap_log_ != nullptr && plan->mode == PropMode::kPropG) {
    swap_log_->record(sim_.now(), plan->u, plan->v);
  }
  charge_messages(*plan, path.size() - 1, /*committed=*/true);
  propagate_exchange_effects(*plan);
  ++stats_.exchanges;
  stats_.total_var_gain += plan->var;
  stats_.last_exchange_time = sim_.now();
  if (bus != nullptr) {
    bus->emit(obs::TraceEventKind::kExchangeCommit, plan->u, plan->v,
              plan->var, plan->from_u.size());
  }
  notify_observer(*plan);
  handle_success(u, first_hop);
  return true;
}

ExchangeView PropEngine::view_of(const ExchangePlan& plan) const {
  ExchangeView view;
  view.prop_g = plan.mode == PropMode::kPropG;
  view.u = plan.u;
  view.v = plan.v;
  if (!view.prop_g) {
    // m > 1 transfer sets are represented by their first neighbor: the
    // lie is a model of misreporting, not exact bookkeeping.
    view.from_u = plan.from_u.empty() ? kInvalidSlot : plan.from_u.front();
    view.from_v = plan.from_v.empty() ? kInvalidSlot : plan.from_v.front();
  }
  return view;
}

double PropEngine::gate_var(const ExchangePlan& plan) {
  if (adversary_ == nullptr) return plan.var;
  return adversary_->perceived_var(view_of(plan), plan.var, params_.min_var);
}

void PropEngine::notify_observer(const ExchangePlan& plan) {
  if (!observer_) return;
  ExchangeEvent event;
  event.time = sim_.now();
  event.mode = plan.mode;
  event.u = plan.u;
  event.v = plan.v;
  event.var = plan.var;
  event.transferred = plan.from_u.size();
  observer_(event);
}

double PropEngine::negotiation_delay_s(std::span<const SlotId> path) const {
  // One round-trip along the walk to reach the counterpart plus one
  // probe round-trip to the farthest hypothetical neighbor, all in
  // milliseconds of physical latency.
  double walk_ms = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    walk_ms += net_.slot_latency(path[i - 1], path[i]);
  }
  double probe_ms = 0.0;
  for (const SlotId end : {path.front(), path.back()}) {
    for (const SlotId nb : net_.graph().neighbors(end)) {
      probe_ms = std::max(probe_ms, net_.slot_latency(end, nb));
    }
  }
  return (2.0 * walk_ms + 2.0 * probe_ms) / 1000.0;
}

bool PropEngine::path_hosts_bound(std::span<const SlotId> path) const {
  const Placement& placement = net_.placement();
  for (const SlotId s : path) {
    if (!placement.slot_bound(s)) return false;
  }
  for (const SlotId end : {path.front(), path.back()}) {
    for (const SlotId nb : net_.graph().neighbors(end)) {
      if (!placement.slot_bound(nb)) return false;
    }
  }
  return true;
}

bool PropEngine::validate_and_apply(SlotId u, SlotId first_hop, SlotId v,
                                    const std::vector<SlotId>& path) {
  (void)first_hop;
  // The world may have changed while the decision was in flight: every
  // path slot must still be active and every path edge present (the
  // connectivity argument of Theorem 1 depends on the path surviving).
  if (!net_.graph().is_active(v)) return false;
  // Random-target probing has no walk path, so no edges to check; the
  // same goes for an eclipse attacker's steered contact, which never
  // walked the overlay in the first place.
  const bool pathless =
      params_.random_target ||
      (adversary_ != nullptr &&
       adversary_->role_of(u) == PeerRole::kEclipse);
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!net_.graph().is_active(path[i])) return false;
    if (!pathless && i > 0 &&
        !net_.graph().has_edge(path[i - 1], path[i])) {
      return false;
    }
  }
  // Re-plan from fresh state; a concurrent exchange may have flipped
  // the gain's sign or stolen the transferable neighbors.
  std::optional<ExchangePlan> plan;
  if (params_.mode == PropMode::kPropG) {
    plan = plan_prop_g(net_, u, v);
  } else {
    plan = plan_prop_o(net_, u, v, path, effective_m_, params_.selection,
                       rng_);
  }
  if (!plan.has_value() || gate_var(*plan) <= params_.min_var) return false;
  apply_exchange(net_, *plan);
  if (swap_log_ != nullptr && plan->mode == PropMode::kPropG) {
    swap_log_->record(sim_.now(), plan->u, plan->v);
  }
  charge_messages(*plan, path.size() - 1, /*committed=*/true);
  propagate_exchange_effects(*plan);
  ++stats_.exchanges;
  stats_.total_var_gain += plan->var;
  stats_.last_exchange_time = sim_.now();
  if (obs::EventBus* bus = net_.trace()) {
    bus->emit(obs::TraceEventKind::kExchangeCommit, plan->u, plan->v,
              plan->var, plan->from_u.size());
  }
  if (adversary_ != nullptr) {
    adversary_->on_exchange_committed(plan->u, plan->v);
  }
  notify_observer(*plan);
  return true;
}

void PropEngine::abort_with_reason(SlotId u, SlotId v,
                                   obs::AbortReason reason) {
  if (obs::EventBus* bus = net_.trace()) {
    bus->emit(obs::TraceEventKind::kExchangeAbort, u, v, 0.0,
              static_cast<std::uint64_t>(reason));
  }
}

void PropEngine::release_lock(SlotId u, SlotId v) {
  if (u < state_.size() && state_[u].peer == v) {
    state_[u].peer = kInvalidSlot;
  }
  if (v < state_.size() && state_[v].peer == u) {
    state_[v].peer = kInvalidSlot;
  }
}

void PropEngine::commit_after_delay(SlotId u, SlotId first_hop, SlotId v,
                                    std::vector<SlotId> path) {
  NodeState& st = state_[u];
  if (!st.active) return;
  if (!validate_and_apply(u, first_hop, v, path)) {
    ++stats_.commit_conflicts;
    abort_with_reason(u, v, obs::AbortReason::kCommitConflict);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  handle_success(u, first_hop);
  schedule_probe(u, st.timer);
}

void PropEngine::begin_negotiation(SlotId u, SlotId first_hop, SlotId v,
                                   std::vector<SlotId> path,
                                   std::size_t retries_used) {
  NodeState& st = state_[u];
  if (!st.active) return;
  if (st.peer != kInvalidSlot) {
    // Already prepared with a counterpart; that negotiation owns the
    // pending event slot, so this attempt just dies.
    abort_with_reason(u, v, obs::AbortReason::kPeerBusy);
    handle_failure(u, first_hop);
    return;
  }
  // The node's next probe is scheduled by the outcome handler, so take
  // over its pending slot.
  if (st.pending != kInvalidEvent) {
    sim_.cancel(st.pending);
    st.pending = kInvalidEvent;
  }
  // An injected crash can unbind a path slot or an endpoint's neighbour
  // while this attempt waited (e.g. for a prepare retransmission); such
  // a path has no latency to price, so the attempt dies here.
  if (!path_hosts_bound(path)) {
    abort_with_reason(u, v, obs::AbortReason::kPeerCrashed);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  const double base_delay = negotiation_delay_s(path);
  if (faults_ == nullptr && adversary_ == nullptr) {
    // Plain delayed-commit mode: single scheduled commit, no locks —
    // the pre-fault protocol, byte-for-byte.
    st.pending = sim_.schedule_in(
        base_delay, [this, u, first_hop, v, path = std::move(path)]() mutable {
          state_[u].pending = kInvalidEvent;
          commit_after_delay(u, first_hop, v, std::move(path));
        });
    return;
  }
  // Hardened two-phase path. The counterpart must be alive and idle —
  // a node inside another negotiation window refuses cleanly.
  if (!net_.graph().is_active(v) || state_[v].peer != kInvalidSlot) {
    abort_with_reason(u, v, obs::AbortReason::kPeerBusy);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  // PREPARE leg u -> v: a loss is detected by timeout after one RTO and
  // retransmitted from scratch, up to the injector's retry budget, with
  // the Markov-chain backoff taking over when the budget runs out.
  // Adversary-only runs have a loss-free network: the leg always lands.
  if (faults_ != nullptr &&
      !faults_->deliver(net_.placement().host_of(u),
                        net_.placement().host_of(v))) {
    ++stats_.timeouts;
    if (obs::EventBus* bus = net_.trace()) {
      bus->emit(obs::TraceEventKind::kNegotiationTimeout, u, v, 0.0,
                retries_used);
    }
    if (retries_used < faults_->params().max_negotiation_retries) {
      ++stats_.retries;
      const double rto = faults_->params().rto_factor * base_delay;
      st.pending = sim_.schedule_in(
          rto, [this, u, first_hop, v, path = std::move(path),
                retries_used]() mutable {
            state_[u].pending = kInvalidEvent;
            begin_negotiation(u, first_hop, v, std::move(path),
                              retries_used + 1);
          });
      return;
    }
    abort_with_reason(u, v, obs::AbortReason::kNegotiationTimeout);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  // Prepare accepted: both endpoints lock for the negotiation window so
  // neither starts a conflicting exchange, and a crash of either inside
  // the window can be attributed to this negotiation.
  st.peer = v;
  state_[v].peer = u;
  const double delay =
      faults_ != nullptr ? faults_->jitter(base_delay) : base_delay;
  if (faults_ != nullptr) faults_->maybe_schedule_crash(u, v, delay);
  st.pending = sim_.schedule_in(
      delay, [this, u, first_hop, v, path = std::move(path)]() mutable {
        state_[u].pending = kInvalidEvent;
        finish_two_phase(u, first_hop, v, std::move(path));
      });
}

void PropEngine::finish_two_phase(SlotId u, SlotId first_hop, SlotId v,
                                  std::vector<SlotId> path) {
  NodeState& st = state_[u];
  if (!st.active) return;  // initiator crashed; node_left settled it
  const bool was_locked = st.peer == v;
  release_lock(u, v);
  if (!was_locked) {
    // A mid-window crash of the counterpart already aborted (and
    // counted) this exchange through node_left; the initiator only
    // backs off.
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  if (!net_.graph().is_active(v)) {
    ++stats_.commit_conflicts;
    abort_with_reason(u, v, obs::AbortReason::kCommitConflict);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  // COMMIT leg v -> u: a selective dropper acked the prepare but
  // discards the commit toward an honest initiator, burning the whole
  // negotiation window. Nothing was applied at prepare time, so both
  // endpoints fall back to their pre-prepare neighbor state.
  if (adversary_ != nullptr && adversary_->drop_commit(v, u)) {
    ++stats_.aborted_mid_commit;
    abort_with_reason(u, v, obs::AbortReason::kAdversaryDrop);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  // Losing the leg to the network after a successful prepare drops the
  // exchange mid-commit the same way.
  if (faults_ != nullptr &&
      !faults_->deliver(net_.placement().host_of(v),
                        net_.placement().host_of(u))) {
    ++stats_.timeouts;
    ++stats_.aborted_mid_commit;
    abort_with_reason(u, v, obs::AbortReason::kMessageLost);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  if (!validate_and_apply(u, first_hop, v, path)) {
    ++stats_.commit_conflicts;
    abort_with_reason(u, v, obs::AbortReason::kCommitConflict);
    handle_failure(u, first_hop);
    schedule_probe(u, st.timer);
    return;
  }
  handle_success(u, first_hop);
  schedule_probe(u, st.timer);
}

void PropEngine::handle_success(SlotId u, SlotId first_hop) {
  NodeState& st = state_[u];
  if (params_.use_priority_queue) st.queue.on_success(first_hop);
  st.timer = params_.init_timer_s;
}

void PropEngine::handle_failure(SlotId u, SlotId first_hop) {
  NodeState& st = state_[u];
  if (params_.use_priority_queue) st.queue.on_failure(first_hop);
  // Backoff applies in the maintenance phase only; warm-up probes at the
  // base rate for MAX_INIT_TRIAL trials.
  if (params_.use_backoff && st.trials > params_.max_init_trial) {
    st.timer = std::min(st.timer * 2.0, params_.max_timer_s());
    if (st.timer >= params_.max_timer_s()) {
      // "if Timer >= MAX_TIMER it will also be set as INIT_TIMER":
      // the cycle restarts rather than freezing the node forever.
      st.timer = params_.init_timer_s;
    }
  }
}

void PropEngine::propagate_exchange_effects(const ExchangePlan& plan) {
  ensure_state_capacity();
  switch (plan.mode) {
    case PropMode::kPropG: {
      // Slots keep their neighbor sets, so third-party queues stay valid.
      // The two swapped peers both completed a successful exchange; their
      // timers reset through handle_success (initiator) and here (peer).
      state_[plan.v].timer = params_.init_timer_s;
      return;
    }
    case PropMode::kPropO: {
      // Moved neighbors see one endpoint replaced by the other: drop the
      // old entry, admit the new one at the front (maximum priority), as
      // the paper prescribes for fresh neighbors.
      for (const SlotId a : plan.from_u) {
        state_[a].queue.remove(plan.u);
        state_[a].queue.add_front(plan.v);
      }
      for (const SlotId b : plan.from_v) {
        state_[b].queue.remove(plan.v);
        state_[b].queue.add_front(plan.u);
      }
      // u and v rebuild queue membership for their changed neighbor sets.
      for (const SlotId a : plan.from_u) {
        state_[plan.u].queue.remove(a);
        state_[plan.v].queue.add_front(a);
      }
      for (const SlotId b : plan.from_v) {
        state_[plan.v].queue.remove(b);
        state_[plan.u].queue.add_front(b);
      }
      state_[plan.v].timer = params_.init_timer_s;
      return;
    }
  }
}

void PropEngine::charge_messages(const ExchangePlan& plan,
                                 std::size_t walk_len, bool committed) {
  (void)walk_len;  // walk hops are charged where the walk happens
  const NodeId host_u = net_.placement().host_of(plan.u);
  const NodeId host_v = net_.placement().host_of(plan.v);
  if (!committed) {
    // Probing the hypothetical neighbors: 2c messages for PROP-G
    // (every neighbor of both peers), 2m for PROP-O (the transfer sets).
    std::uint64_t probes_u = 0;
    std::uint64_t probes_v = 0;
    if (plan.mode == PropMode::kPropG) {
      probes_u = net_.graph().degree(plan.v);
      probes_v = net_.graph().degree(plan.u);
    } else {
      probes_u = plan.from_v.size();
      probes_v = plan.from_u.size();
    }
    if (probes_u > 0) {
      net_.traffic().count(host_u, MessageKind::kProbe, probes_u);
    }
    if (probes_v > 0) {
      net_.traffic().count(host_v, MessageKind::kProbe, probes_v);
    }
    return;
  }
  // Commit: the two peers rewrite entries and notify affected neighbors.
  net_.traffic().count(host_u, MessageKind::kExchangeCtrl);
  net_.traffic().count(host_v, MessageKind::kExchangeCtrl);
  std::uint64_t notify_u = 0;
  std::uint64_t notify_v = 0;
  if (plan.mode == PropMode::kPropG) {
    notify_u = net_.graph().degree(plan.u);
    notify_v = net_.graph().degree(plan.v);
  } else {
    notify_u = plan.from_u.size();
    notify_v = plan.from_v.size();
  }
  if (notify_u > 0) net_.traffic().count(host_u, MessageKind::kNotify, notify_u);
  if (notify_v > 0) net_.traffic().count(host_v, MessageKind::kNotify, notify_v);
}

void PropEngine::node_joined(SlotId s, std::span<const SlotId> new_neighbors) {
  ensure_state_capacity();
  init_node(s);
  schedule_probe(s, rng_.uniform_double(0.0, params_.init_timer_s));
  // Surviving peers learn of a fresh neighbor: front of neighborQ with
  // maximum priority, and their timer resets so they probe soon. A peer
  // inside a two-phase negotiation window keeps its pending commit — the
  // pending event belongs to that exchange, not to the probe cycle.
  for (const SlotId nb : new_neighbors) {
    if (!state_[nb].active) continue;
    if (!state_[nb].queue.contains(s)) state_[nb].queue.add_front(s);
    state_[nb].timer = params_.init_timer_s;
    if (state_[nb].peer != kInvalidSlot) continue;
    reschedule_sooner(nb, rng_.uniform_double(0.0, params_.init_timer_s));
  }
}

void PropEngine::node_left(SlotId s,
                           std::span<const SlotId> former_neighbors) {
  ensure_state_capacity();
  NodeState& st = state_[s];
  if (st.pending != kInvalidEvent) {
    sim_.cancel(st.pending);
    st.pending = kInvalidEvent;
  }
  if (st.peer != kInvalidSlot) {
    // The departed endpoint was inside a two-phase negotiation window:
    // the exchange aborts cleanly. Nothing was applied at prepare time,
    // so both neighbor lists stay exactly as they were (PROP-G keeps no
    // half-moved position either — a swap only lands at commit, after
    // which SwapLog's transient forwarding covers the stale references).
    ++stats_.aborted_mid_commit;
    abort_with_reason(s, st.peer, obs::AbortReason::kPeerCrashed);
    release_lock(s, st.peer);
  }
  st.active = false;
  for (const SlotId nb : former_neighbors) {
    if (!state_[nb].active) continue;
    state_[nb].queue.remove(s);
    state_[nb].timer = params_.init_timer_s;
  }
}

void PropEngine::edge_added(SlotId a, SlotId b) {
  ensure_state_capacity();
  for (const auto& [self, other] : {std::pair{a, b}, std::pair{b, a}}) {
    if (!state_[self].active) continue;
    if (!state_[self].queue.contains(other)) {
      state_[self].queue.add_front(other);
    }
    state_[self].timer = params_.init_timer_s;
  }
}

double PropEngine::timer_of(SlotId s) const {
  PROPSIM_CHECK(s < state_.size());
  return state_[s].timer;
}

bool PropEngine::in_maintenance(SlotId s) const {
  PROPSIM_CHECK(s < state_.size());
  return state_[s].trials >= params_.max_init_trial;
}

const NeighborQueue& PropEngine::queue_of(SlotId s) const {
  PROPSIM_CHECK(s < state_.size());
  return state_[s].queue;
}

}  // namespace propsim
