#include "adversary/adversary.h"

#include <algorithm>

#include "common/check.h"

namespace propsim {

const char* to_string(PeerRole role) {
  switch (role) {
    case PeerRole::kHonest: return "honest";
    case PeerRole::kLiar: return "liar";
    case PeerRole::kFreeRider: return "free-rider";
    case PeerRole::kDropper: return "dropper";
    case PeerRole::kEclipse: return "eclipse";
  }
  return "?";
}

namespace {

/// Hash a host id into [0, 1) — stable under any RNG usage elsewhere.
double host_unit(NodeId host, std::uint64_t salt) {
  std::uint64_t state = static_cast<std::uint64_t>(host) ^ salt;
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

AdversaryLayer::AdversaryLayer(const OverlayNetwork& net,
                               const AdversaryParams& params,
                               std::uint64_t seed)
    : net_(net), params_(params), rng_(seed + 257) {
  PROPSIM_CHECK(params_.liar_fraction >= 0.0 && params_.liar_fraction < 1.0);
  PROPSIM_CHECK(params_.freeride_fraction >= 0.0 &&
                params_.freeride_fraction < 1.0);
  PROPSIM_CHECK(params_.dropper_fraction >= 0.0 &&
                params_.dropper_fraction < 1.0);
  PROPSIM_CHECK(params_.eclipse_fraction >= 0.0 &&
                params_.eclipse_fraction < 1.0);
  PROPSIM_CHECK(params_.liar_fraction + params_.freeride_fraction +
                    params_.dropper_fraction + params_.eclipse_fraction <
                1.0);
  PROPSIM_CHECK(params_.lie_factor > 0.0 && params_.lie_factor <= 1.0);
  PROPSIM_CHECK(params_.drop_probability >= 0.0 &&
                params_.drop_probability <= 1.0);
  // Role assignment hashes host ids against a seed-derived salt; the
  // private stream stays untouched until a fractional-probability model
  // actually draws.
  std::uint64_t salt_state = seed + 257;
  role_salt_ = splitmix64(salt_state);

  if (params_.eclipse_fraction > 0.0) {
    eclipse_target_ = params_.eclipse_target;
    if (eclipse_target_ == kInvalidSlot) {
      // Auto target: the best-connected active slot (ties -> lowest id),
      // the seat whose neighbor set is most valuable to monopolize.
      const LogicalGraph& g = net_.graph();
      std::size_t best_degree = 0;
      for (SlotId s = 0; s < static_cast<SlotId>(g.slot_count()); ++s) {
        if (!g.is_active(s)) continue;
        if (g.degree(s) > best_degree) {
          best_degree = g.degree(s);
          eclipse_target_ = s;
        }
      }
    }
    PROPSIM_CHECK(eclipse_target_ != kInvalidSlot);
  }
}

PeerRole AdversaryLayer::role_of(SlotId slot) const {
  if (!net_.graph().is_active(slot)) return PeerRole::kHonest;
  return role_of_host(net_.placement().host_of(slot));
}

PeerRole AdversaryLayer::role_of_host(NodeId host) const {
  const double u = host_unit(host, role_salt_);
  double edge = params_.liar_fraction;
  if (u < edge) return PeerRole::kLiar;
  edge += params_.freeride_fraction;
  if (u < edge) return PeerRole::kFreeRider;
  edge += params_.dropper_fraction;
  if (u < edge) return PeerRole::kDropper;
  edge += params_.eclipse_fraction;
  if (u < edge) return PeerRole::kEclipse;
  return PeerRole::kHonest;
}

double endpoint_cost_now(const OverlayNetwork& net, SlotId endpoint) {
  return net.neighbor_latency_sum(endpoint);
}

double endpoint_cost_after(const OverlayNetwork& net,
                           const ExchangeView& view, SlotId endpoint) {
  PROPSIM_DCHECK(endpoint == view.u || endpoint == view.v);
  const SlotId other = endpoint == view.u ? view.v : view.u;
  const LogicalGraph& g = net.graph();
  if (view.prop_g) {
    // The endpoint's host takes the other slot's seat; every other host
    // stays put, so current slot latencies still describe the pairs —
    // except the other slot's old seat, now occupied by the counterpart.
    double cost = 0.0;
    for (const SlotId n : g.neighbors(other)) {
      cost += n == endpoint ? net.slot_latency(endpoint, other)
                            : net.slot_latency(endpoint, n);
    }
    return cost;
  }
  const SlotId gives = endpoint == view.u ? view.from_u : view.from_v;
  const SlotId takes = endpoint == view.u ? view.from_v : view.from_u;
  return endpoint_cost_now(net, endpoint) -
         net.slot_latency(endpoint, gives) + net.slot_latency(endpoint, takes);
}

double selfish_gain(const OverlayNetwork& net, const ExchangeView& view,
                    SlotId endpoint) {
  return endpoint_cost_now(net, endpoint) -
         endpoint_cost_after(net, view, endpoint);
}

std::array<std::uint64_t, 5> AdversaryLayer::census(std::size_t hosts) const {
  std::array<std::uint64_t, 5> counts{};
  for (std::size_t h = 0; h < hosts; ++h) {
    ++counts[static_cast<std::size_t>(role_of_host(static_cast<NodeId>(h)))];
  }
  return counts;
}

double AdversaryLayer::perceived_var(const ExchangeView& view, double true_var,
                                     double min_var) {
  double reported = true_var;
  for (const SlotId endpoint : {view.u, view.v}) {
    if (role_of(endpoint) != PeerRole::kLiar) continue;
    const double gain = selfish_gain(net_, view, endpoint);
    if (gain > 0.0) {
      // The liar wants this exchange: under-report its post-exchange
      // cost so the apparent system-wide saving grows.
      reported += params_.lie_factor * endpoint_cost_after(net_, view,
                                                           endpoint);
    } else if (gain < 0.0) {
      // The liar loses from it: pad its reported post-exchange cost to
      // veto a cooperative improvement.
      reported -= params_.lie_factor * endpoint_cost_now(net_, endpoint);
    }
  }
  if (role_of(view.u) == PeerRole::kEclipse) {
    // Eclipse initiators lie whatever it takes to clear the gate.
    reported = std::max(reported, min_var + 1.0);
  }
  const bool honest_pass = true_var > min_var;
  const bool reported_pass = reported > min_var;
  if (honest_pass != reported_pass) {
    ++stats_.lies;
    if (trace_ != nullptr) {
      trace_->emit(obs::TraceEventKind::kAdversaryLie, view.u, view.v,
                   reported - true_var, reported_pass ? 1 : 2);
    }
  }
  return reported;
}

bool AdversaryLayer::drop_commit(SlotId responder, SlotId initiator) {
  if (role_of(responder) != PeerRole::kDropper) return false;
  if (role_of(initiator) != PeerRole::kHonest) return false;
  const double p = params_.drop_probability;
  bool drop;
  if (p >= 1.0) {
    drop = true;  // certain drop: no stream consumption
  } else if (p <= 0.0) {
    drop = false;  // disarmed dropper: no stream consumption
  } else {
    drop = rng_.bernoulli(p);
  }
  if (drop) {
    ++stats_.drops;
    if (trace_ != nullptr) {
      trace_->emit(obs::TraceEventKind::kAdversaryDrop, responder, initiator,
                   0.0, 0);
    }
  }
  return drop;
}

bool AdversaryLayer::sits_out(SlotId u) {
  const PeerRole role = role_of(u);
  if (role == PeerRole::kFreeRider) {
    ++stats_.freeride_skips;
    return true;
  }
  if (role == PeerRole::kEclipse && eclipse_target_ != kInvalidSlot &&
      u != eclipse_target_ && net_.graph().has_edge(u, eclipse_target_)) {
    // Captured attackers go dormant: initiating again could swap them
    // back out of the seat they fought for.
    return true;
  }
  return false;
}

SlotId AdversaryLayer::eclipse_counterpart(SlotId u) {
  if (role_of(u) != PeerRole::kEclipse) return kInvalidSlot;
  if (eclipse_target_ == kInvalidSlot || u == eclipse_target_ ||
      !net_.graph().is_active(eclipse_target_)) {
    return kInvalidSlot;
  }
  const auto neighbors = net_.graph().neighbors(eclipse_target_);
  if (neighbors.empty()) return kInvalidSlot;
  // Shared round-robin cursor: the cohort spreads over distinct seats
  // instead of all fighting for the same one.
  for (std::size_t step = 0; step < neighbors.size(); ++step) {
    const SlotId candidate =
        neighbors[(eclipse_cursor_ + step) % neighbors.size()];
    if (candidate == u || candidate == eclipse_target_) continue;
    if (role_of(candidate) == PeerRole::kEclipse) continue;
    eclipse_cursor_ = (eclipse_cursor_ + step + 1) % neighbors.size();
    ++stats_.eclipse_attempts;
    return candidate;
  }
  return kInvalidSlot;
}

void AdversaryLayer::on_exchange_committed(SlotId a, SlotId b) {
  if (eclipse_target_ == kInvalidSlot) return;
  for (const SlotId s : {a, b}) {
    if (s == eclipse_target_) continue;
    if (role_of(s) != PeerRole::kEclipse) continue;
    if (!net_.graph().has_edge(s, eclipse_target_)) continue;
    ++stats_.eclipse_captures;
    if (trace_ != nullptr) {
      trace_->emit(obs::TraceEventKind::kEclipseCapture, s, eclipse_target_,
                   0.0, 0);
    }
  }
}

std::size_t AdversaryLayer::eclipse_captured() const {
  if (eclipse_target_ == kInvalidSlot ||
      !net_.graph().is_active(eclipse_target_)) {
    return 0;
  }
  std::size_t held = 0;
  for (const SlotId n : net_.graph().neighbors(eclipse_target_)) {
    if (role_of(n) == PeerRole::kEclipse) ++held;
  }
  return held;
}

}  // namespace propsim
