// Deterministic byzantine behavior layer on the PROP negotiation path.
//
// Mirrors the FaultInjector seam: PropEngine holds a nullable
// AdversaryLayer pointer and consults it at fixed points of the
// prepare/commit state machine. The layer owns a private RNG stream
// (seed + 257) so that attaching it never perturbs the engine's, the
// fault injector's, or the churn process's draws — and models whose
// probability knobs are zero never draw from it, keeping all-zero
// configs bit-identical to honest runs.
//
// Four peer models (ISSUE 9 / ROADMAP "adversarial peers"), each bound
// to a disjoint fraction of HOSTS (roles follow hosts through PROP-G
// placement swaps) selected by hashing the host id — no RNG stream
// consumption, so fractions can change without shifting other streams:
//
//  - latency liars    misreport the counterpart-side cost of a planned
//                     exchange by a multiplicative deflation factor,
//                     corrupting the MIN_VAR decision whenever the lie
//                     serves the liar's selfish gain (`selfish_gain`
//                     below: "what does this peer win").
//  - free-riders      accept inbound exchanges but never probe or
//                     initiate — they sit out their own probe timers.
//  - selective        ack prepares, then drop the commit leg toward
//    droppers         honest victims, burning the victim's retry budget.
//  - eclipse          coordinate to monopolize one target's neighbor
//    attackers        slots: every attacker steers its exchanges toward
//                     the target's neighborhood and lies as needed to
//                     force the plans through.
//
// Lies corrupt *decisions*, never *structure*: the applied exchange is
// always the true plan, so Theorem 1 (degree conservation) and
// Theorem 2 (isomorphism by bijection) survive any lie — which the
// paranoid audit re-checks post-attack.
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "obs/event_bus.h"
#include "overlay/overlay_network.h"

namespace propsim {

enum class PeerRole : std::uint8_t {
  kHonest = 0,
  kLiar,
  kFreeRider,
  kDropper,
  kEclipse,
};

const char* to_string(PeerRole role);

struct AdversaryParams {
  /// Disjoint host fractions per model, each in [0, 1), summing < 1.
  double liar_fraction = 0.0;
  double freeride_fraction = 0.0;
  double dropper_fraction = 0.0;
  double eclipse_fraction = 0.0;

  /// Multiplicative deflation a liar applies to its reported cost:
  /// reported = (1 - lie_factor) * true cost. In (0, 1].
  double lie_factor = 0.5;

  /// Probability a dropper discards a commit leg toward an honest
  /// victim. 1.0 and 0.0 never draw from the RNG stream.
  double drop_probability = 1.0;

  /// Slot the eclipse cohort converges on; kInvalidSlot = pick the
  /// highest-degree active slot at attach time.
  SlotId eclipse_target = kInvalidSlot;

  bool active() const {
    return liar_fraction > 0.0 || freeride_fraction > 0.0 ||
           dropper_fraction > 0.0 || eclipse_fraction > 0.0;
  }
};

/// A PROP exchange seen from one endpoint's selfish perspective.
///
/// Mirrors core's ExchangePlan without depending on it, so layers below
/// core (the adversary models) can reason about what a single peer wins
/// or loses from an exchange the cooperative Var metric would accept.
struct ExchangeView {
  bool prop_g = true;     // true: placement swap; false: neighbor transfer
  SlotId u = kInvalidSlot;
  SlotId v = kInvalidSlot;
  SlotId from_u = kInvalidSlot;  // PROP-O: neighbor u hands to v
  SlotId from_v = kInvalidSlot;  // PROP-O: neighbor v hands to u
};

/// Sum of latencies from endpoint's current host to its current logical
/// neighbors — the cost a selfish peer wants to shrink.
double endpoint_cost_now(const OverlayNetwork& net, SlotId endpoint);

/// Cost `endpoint` would carry after the exchange executes. For PROP-G
/// the endpoint's host moves to the other slot's seat (the logical graph
/// is untouched); for PROP-O the transferred neighbors swap.
double endpoint_cost_after(const OverlayNetwork& net,
                           const ExchangeView& view, SlotId endpoint);

/// Positive when the exchange improves `endpoint`'s own latency sum —
/// the quantity a latency liar inflates and a free-rider never spends
/// messages to discover.
double selfish_gain(const OverlayNetwork& net, const ExchangeView& view,
                    SlotId endpoint);

class AdversaryLayer {
 public:
  struct Stats {
    std::uint64_t lies = 0;             // MIN_VAR decisions flipped
    std::uint64_t drops = 0;            // commit legs discarded
    std::uint64_t freeride_skips = 0;   // probe trials sat out
    std::uint64_t eclipse_attempts = 0; // exchanges steered at the target
    std::uint64_t eclipse_captures = 0; // attacker landed next to target
  };

  /// `seed` is the experiment seed; the layer derives its private
  /// stream at seed + 257. `net` must outlive the layer.
  AdversaryLayer(const OverlayNetwork& net, const AdversaryParams& params,
                 std::uint64_t seed);

  void set_trace(obs::EventBus* bus) { trace_ = bus; }

  /// Role of the host currently bound to `slot` (kHonest for inactive
  /// slots). Pure hash of the host id — deterministic, draw-free.
  PeerRole role_of(SlotId slot) const;
  PeerRole role_of_host(NodeId host) const;

  /// Number of hosts per role over the whole host space (for result
  /// reporting); index by static_cast<size_t>(PeerRole).
  std::array<std::uint64_t, 5> census(std::size_t hosts) const;

  /// The Var value the engine should gate on: honest endpoints pass
  /// `true_var` through untouched; a lying endpoint deflates its own
  /// reported cost when the lie serves its selfish gain; an eclipse
  /// initiator force-reports enough to clear the gate. Counts/traces
  /// only when the lie actually flips the decision at `min_var`.
  double perceived_var(const ExchangeView& view, double true_var,
                       double min_var);

  /// True when `responder` is a dropper and chooses to discard the
  /// commit leg toward honest `initiator`.
  bool drop_commit(SlotId responder, SlotId initiator);

  /// True when the host at `u` never initiates probes (free-riders
  /// always, counted; eclipse attackers once they hold a seat next to
  /// the target — they go dormant to keep the captured slot).
  bool sits_out(SlotId u);

  /// For an eclipse attacker at `u`: the neighbor slot of the target
  /// this attacker should try to swap into (round-robin over the
  /// target's current neighbors, skipping seats the cohort already
  /// holds). kInvalidSlot when not applicable.
  SlotId eclipse_counterpart(SlotId u);

  /// Engine callback after any committed exchange: detects eclipse
  /// captures (attacker host now adjacent to the target).
  void on_exchange_committed(SlotId a, SlotId b);

  /// Target's neighbor seats currently held by eclipse hosts.
  std::size_t eclipse_captured() const;

  SlotId eclipse_target() const { return eclipse_target_; }
  const Stats& stats() const { return stats_; }
  const AdversaryParams& params() const { return params_; }

 private:
  const OverlayNetwork& net_;
  AdversaryParams params_;
  Rng rng_;
  std::uint64_t role_salt_ = 0;
  obs::EventBus* trace_ = nullptr;
  SlotId eclipse_target_ = kInvalidSlot;
  std::size_t eclipse_cursor_ = 0;
  Stats stats_;
};

}  // namespace propsim
