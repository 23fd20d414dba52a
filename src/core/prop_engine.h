// PropEngine: the event-driven PROP protocol (warm-up + maintenance).
//
// Each active overlay slot runs the per-node state machine of the paper's
// Section 3.2 on the shared discrete-event clock: periodic probes walk
// nhops away, evaluate Var against a potential counterpart, and commit
// the exchange when Var > MIN_VAR. Maintenance adds the neighborQ
// priority feedback and the Markov-chain timer backoff.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "adversary/adversary.h"
#include "common/rng.h"
#include "core/exchange.h"
#include "core/neighbor_queue.h"
#include "core/params.h"
#include "core/swap_log.h"
#include "faults/fault_plan.h"
#include "overlay/overlay_network.h"
#include "sim/scheduler.h"

namespace propsim {

class PropEngine {
 public:
  struct Stats {
    std::uint64_t attempts = 0;       // probe trials started
    std::uint64_t walk_failures = 0;  // walk could not reach nhops depth
    std::uint64_t planned = 0;        // plans evaluated against MIN_VAR
    std::uint64_t exchanges = 0;      // committed exchanges
    std::uint64_t rejected = 0;       // plans with Var <= MIN_VAR
    std::uint64_t commit_conflicts = 0;  // delayed commits invalidated by
                                         // a concurrent change
    std::uint64_t timeouts = 0;   // negotiation messages lost to faults
    std::uint64_t retries = 0;    // prepare retransmissions sent
    std::uint64_t aborted_mid_commit = 0;  // two-phase exchanges dropped
                                           // after a successful prepare
    double total_var_gain = 0.0;      // summed Var of committed exchanges
    double last_exchange_time = 0.0;
  };

  /// The engine keeps references to `net` and `sim`; both must outlive it.
  PropEngine(OverlayNetwork& net, Scheduler& sim, const PropParams& params,
             std::uint64_t seed);

  /// Initializes per-node state and schedules the first probe of every
  /// active slot (staggered uniformly over one INIT_TIMER).
  void start();

  /// Cancels all pending probes.
  void stop();

  /// Runs one probe attempt for `u` immediately (tests / manual driving).
  /// Returns true if an exchange was committed.
  bool attempt(SlotId u);

  /// Churn hooks. Call node_joined after the slot is active and wired
  /// into the logical graph; call node_left after its edges are gone.
  /// Surviving neighbors' queues and timers are adjusted here.
  void node_joined(SlotId s, std::span<const SlotId> new_neighbors);
  void node_left(SlotId s, std::span<const SlotId> former_neighbors);

  /// Repair hook: an edge a—b was added between two existing active
  /// peers (failure repair, manual rewiring). Both ends treat the other
  /// as a fresh neighbor: front of neighborQ, timer reset.
  void edge_added(SlotId a, SlotId b);

  const Stats& stats() const { return stats_; }
  const PropParams& params() const { return params_; }

  /// Effective PROP-O exchange size (params.m, or delta(G) captured at
  /// start() when params.m == 0).
  std::size_t exchange_size() const { return effective_m_; }

  /// Optional sink for committed PROP-G swaps (transient-forwarding
  /// studies; see core/swap_log.h). Not owned; may be null.
  void set_swap_log(SwapLog* log) { swap_log_ = log; }

  /// Attaches a fault injector (not owned, may be null). With faults
  /// attached every negotiation runs the hardened two-phase
  /// prepare/commit path — both endpoints lock for the negotiation
  /// window, prepare losses time out and retry up to the injector's
  /// budget, and a crash of either endpoint mid-swap aborts cleanly —
  /// even when model_message_delays is off. Without an injector the
  /// engine is byte-for-byte the fault-free protocol.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

  /// Attaches a byzantine behavior layer (not owned, may be null). The
  /// layer intercepts the negotiation path at four points: probe timers
  /// of sitting-out peers (free-riders, captured eclipse attackers),
  /// counterpart selection (eclipse steering), the MIN_VAR gate (liars
  /// distort the *decision* — the applied plan is always the true one,
  /// so Theorems 1/2 hold under any lie) and the commit leg (selective
  /// droppers). Attaching it engages the hardened two-phase path even
  /// without faults; detached, the engine is byte-for-byte honest.
  void set_adversary(AdversaryLayer* adversary) { adversary_ = adversary; }

  /// One committed exchange, as reported to the observer.
  struct ExchangeEvent {
    double time = 0.0;
    PropMode mode = PropMode::kPropG;
    SlotId u = kInvalidSlot;
    SlotId v = kInvalidSlot;
    double var = 0.0;
    std::size_t transferred = 0;  // m for PROP-O, 0 for PROP-G
  };
  using ExchangeObserver = std::function<void(const ExchangeEvent&)>;

  /// Observability hook: called after every committed exchange (event
  /// timelines, live dashboards, trace dumps). May be empty.
  void set_observer(ExchangeObserver observer) {
    observer_ = std::move(observer);
  }

  /// Two-phase negotiation counterpart of `s`, kInvalidSlot when idle or
  /// out of range. Lock-audit hook (analysis/invariant_checker.h).
  SlotId negotiation_peer(SlotId s) const {
    return s < state_.size() ? state_[s].peer : kInvalidSlot;
  }

  /// True when the engine owns a scheduled simulator event for `s` (next
  /// probe, prepare retransmission or pending commit). Lock-audit hook.
  bool has_pending_event(SlotId s) const {
    return s < state_.size() && state_[s].pending != kInvalidEvent;
  }

  /// Slots the engine tracks state for (>= the graph's slot count once
  /// started). Lock-audit hook.
  std::size_t tracked_slots() const { return state_.size(); }

  /// Current probe timer of a slot (tests/benches).
  double timer_of(SlotId s) const;
  bool in_maintenance(SlotId s) const;
  const NeighborQueue& queue_of(SlotId s) const;

 private:
  struct NodeState {
    NeighborQueue queue;
    double timer = 0.0;
    std::size_t trials = 0;
    EventId pending = kInvalidEvent;
    bool active = false;
    /// Two-phase negotiation lock: the counterpart this node is prepared
    /// with (kInvalidSlot when idle). Only ever set while a fault
    /// injector or an adversary layer is attached.
    SlotId peer = kInvalidSlot;
  };

  void ensure_state_capacity();
  void init_node(SlotId s);
  void schedule_probe(SlotId s, double delay);
  void reschedule_sooner(SlotId s, double delay);
  void on_probe_timer(SlotId s);
  /// Delayed-commit path: re-plans and applies after the negotiation
  /// round-trips; updates queue/timer and schedules the next probe.
  void commit_after_delay(SlotId u, SlotId first_hop, SlotId v,
                          std::vector<SlotId> path);
  /// Hardened two-phase negotiation (faults attached): prepare leg with
  /// bounded retransmission, endpoint locks, then the delayed commit.
  void begin_negotiation(SlotId u, SlotId first_hop, SlotId v,
                         std::vector<SlotId> path, std::size_t retries_used);
  void finish_two_phase(SlotId u, SlotId first_hop, SlotId v,
                        std::vector<SlotId> path);
  /// Re-validates the path, re-plans from fresh state and applies;
  /// returns false (emitting nothing) when the plan no longer holds.
  bool validate_and_apply(SlotId u, SlotId first_hop, SlotId v,
                          const std::vector<SlotId>& path);
  void abort_with_reason(SlotId u, SlotId v, obs::AbortReason reason);
  void release_lock(SlotId u, SlotId v);
  /// Simulated duration of one probe negotiation (walk + probe RTTs).
  double negotiation_delay_s(std::span<const SlotId> path) const;
  /// True when every slot negotiation_delay_s(path) prices — the path
  /// and both endpoints' neighbours — is still bound to a host.
  bool path_hosts_bound(std::span<const SlotId> path) const;
  void handle_success(SlotId u, SlotId first_hop);
  void handle_failure(SlotId u, SlotId first_hop);
  void notify_observer(const ExchangePlan& plan);
  /// The plan as one endpoint's selfish perspective (adversary models).
  ExchangeView view_of(const ExchangePlan& plan) const;
  /// The Var the MIN_VAR gate sees: the true Var, unless an attached
  /// adversary distorts it.
  double gate_var(const ExchangePlan& plan);
  /// Queue/notification updates on third parties after a committed plan.
  void propagate_exchange_effects(const ExchangePlan& plan);
  void charge_messages(const ExchangePlan& plan, std::size_t walk_len,
                       bool committed);

  OverlayNetwork& net_;
  Scheduler& sim_;
  PropParams params_;
  Rng rng_;
  std::vector<NodeState> state_;
  SwapLog* swap_log_ = nullptr;
  FaultInjector* faults_ = nullptr;
  AdversaryLayer* adversary_ = nullptr;
  ExchangeObserver observer_;
  Stats stats_;
  std::size_t effective_m_ = 1;
  bool started_ = false;
};

}  // namespace propsim
