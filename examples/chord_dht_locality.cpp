// DHT scenario: a key-value store on Chord whose lookups become
// location-aware through PROP-G identifier exchanges.
//
// Demonstrates the structured-overlay side of the paper: the ring, the
// finger tables and the key->owner mapping never change (Theorem 2 —
// the overlay stays isomorphic), yet lookup latency drops because peers
// trade places so logical neighbors become physical neighbors. The
// example also layers PROP-G over a PIS (landmark) id assignment to show
// the techniques compose.
#include <cstdio>
#include <string>

#include "baselines/pis.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "metrics/metrics.h"
#include "overlay/isomorphism.h"
#include "sim/scheduler.h"
#include "topology/transit_stub.h"
#include "workload/host_selection.h"

namespace {

// A toy content hash (FNV-1a) mapping names to ring keys.
propsim::ChordId key_of(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

int main() {
  using namespace propsim;

  Rng rng(7);
  const TransitStubTopology topo =
      make_transit_stub(TransitStubConfig::ts_large(), rng);
  const LatencyOracle oracle(topo);  // exact hierarchical engine, O(1) queries
  const auto hosts = select_stub_hosts(topo, 512, rng);

  // --- Variant A: plain Chord (random identifiers). ---
  const ChordRing ring = ChordRing::build_random(512, ChordConfig{}, rng);
  OverlayNetwork net = make_chord_overlay(ring, hosts, oracle);

  // Store a few objects and remember their owners.
  const std::string names[] = {"alice/profile", "bob/photo.png",
                               "carol/thesis.pdf"};
  for (const std::string& name : names) {
    const SlotId owner = ring.successor_of(key_of(name));
    std::printf("PUT %-18s -> key %016llx owned by slot %u (host %u)\n",
                name.c_str(),
                static_cast<unsigned long long>(key_of(name)), owner,
                net.placement().host_of(owner));
  }

  Rng qrng(13);
  const auto queries = sample_query_pairs(net.graph(), 5000, qrng);
  const auto router = chord_router(net, ring);
  const auto before = stretch(net, queries, router);

  // Snapshot for the isomorphism certificate.
  const auto edges_before = host_edges(net.graph(), net.placement());
  const Placement placement_before = net.placement();

  Scheduler sim;
  PropParams params;  // PROP-G
  PropEngine engine(net, sim, params, 21);
  engine.start();
  sim.run_until(3600.0);

  const auto after = stretch(net, queries, router);
  std::printf("\nplain Chord + PROP-G (1 simulated hour, %llu exchanges):\n",
              static_cast<unsigned long long>(engine.stats().exchanges));
  std::printf("  avg lookup latency : %.1f ms -> %.1f ms\n",
              before.logical_al, after.logical_al);
  std::printf("  stretch            : %.2f -> %.2f\n", before.stretch,
              after.stretch);

  // Theorem 2, checked live: the host-level overlay after the exchanges
  // is isomorphic to the original via the placement bijection.
  const auto edges_after = host_edges(net.graph(), net.placement());
  const auto [bij_hosts, phi] =
      placement_bijection(placement_before, net.placement());
  std::printf("  overlay isomorphic : %s\n",
              isomorphic_via(edges_before, edges_after, bij_hosts, phi)
                  ? "yes (Theorem 2 verified)"
                  : "NO — bug!");

  // Keys still resolve: owners moved hosts, not identities.
  for (const std::string& name : names) {
    const SlotId owner = ring.successor_of(key_of(name));
    std::printf("GET %-18s -> slot %u now served from host %u\n",
                name.c_str(), owner, net.placement().host_of(owner));
  }

  // --- Variant B: PIS identifiers + PROP-G (composition). ---
  const auto landmarks = select_landmarks(topo, 8, rng);
  const auto pis_ids = pis_identifiers(hosts, landmarks, oracle, rng);
  const ChordRing pis_ring = ChordRing::build_with_ids(pis_ids, ChordConfig{});
  OverlayNetwork pis_net = make_chord_overlay(pis_ring, hosts, oracle);
  const auto pis_router = chord_router(pis_net, pis_ring);
  const auto pis_before = stretch(pis_net, queries, pis_router);
  Scheduler sim2;
  PropEngine engine2(pis_net, sim2, params, 22);
  engine2.start();
  sim2.run_until(3600.0);
  const auto pis_after = stretch(pis_net, queries, pis_router);
  std::printf("\nPIS Chord + PROP-G:\n");
  std::printf("  stretch            : %.2f (PIS alone) -> %.2f (with "
              "PROP-G)\n",
              pis_before.stretch, pis_after.stretch);
  std::printf("  vs plain Chord     : %.2f\n", before.stretch);
  return 0;
}
