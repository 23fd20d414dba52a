// Gnutella-like unstructured overlay construction.
//
// Peers join in random order and connect to a few existing peers chosen
// uniformly and/or preferentially by degree; the preferential share gives
// the overlay the heavy-tailed ("power-law-like") degree profile measured
// on the real Gnutella network, which PROP-O is designed to preserve.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"

namespace propsim {

struct GnutellaConfig {
  /// Links each joining peer opens to existing peers. The first
  /// (attach_links + 1) peers form a clique so the minimum degree of the
  /// finished overlay equals attach_links — the paper's delta(G).
  std::size_t attach_links = 4;
};

/// Builds the overlay over `hosts` (distinct physical node ids); slot i is
/// bound to hosts[i]. Requires hosts.size() > attach_links. When `trace`
/// is non-null it becomes the overlay's event bus (one kJoin per slot).
OverlayNetwork build_gnutella_overlay(const GnutellaConfig& config,
                                      std::span<const NodeId> hosts,
                                      const LatencyOracle& oracle, Rng& rng,
                                      obs::EventBus* trace = nullptr);

/// Attaches a fresh joiner (bound to `host`) to an existing overlay using
/// the same link-selection rule; returns the new slot. Used by churn.
SlotId gnutella_join(OverlayNetwork& net, const GnutellaConfig& config,
                     NodeId host, Rng& rng);

}  // namespace propsim
