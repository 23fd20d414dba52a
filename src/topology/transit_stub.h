// GT-ITM-style transit-stub physical topology generator.
//
// The paper evaluates over two GT-ITM transit-stub models ("ts-large" with a
// large backbone and sparse edge, and "ts-small" with a small backbone and
// dense edge). GT-ITM itself is a standalone tool we do not ship; the
// transit-stub model is fully specified by the domain counts and edge
// probabilities below, so we generate the same graph family directly.
//
// Structure:
//   * `transit_domains` transit domains, each a connected random graph of
//     `transit_nodes_per_domain` nodes with transit-transit latency links;
//   * the domains are interconnected by a random domain-level spanning tree
//     plus `extra_interdomain_edges` shortcuts (also transit-transit);
//   * every transit node anchors `stub_domains_per_transit` stub domains;
//     each stub domain is a connected random graph of `nodes_per_stub`
//     nodes with stub-stub latency links, attached to its transit node by
//     one stub-transit link.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "topology/graph.h"

namespace propsim {

enum class NodeKind : std::uint8_t { kTransit, kStub };

struct TransitStubConfig {
  std::size_t transit_domains = 10;
  std::size_t transit_nodes_per_domain = 4;
  std::size_t stub_domains_per_transit = 3;
  std::size_t nodes_per_stub = 40;

  /// Probability of each additional intra-domain edge beyond the spanning
  /// tree that guarantees connectivity.
  double transit_edge_probability = 0.6;
  double stub_edge_probability = 0.05;

  /// Extra transit-domain-level shortcut edges beyond the spanning tree.
  std::size_t extra_interdomain_edges = 5;

  /// Link latencies in milliseconds by class (canonical GT-ITM assignment).
  double stub_stub_ms = 5.0;
  double stub_transit_ms = 20.0;
  double transit_transit_ms = 100.0;

  std::size_t total_nodes() const {
    return transit_domains * transit_nodes_per_domain *
               (1 + stub_domains_per_transit * nodes_per_stub);
  }

  /// Stub (edge) nodes, the hosts an overlay draws its peers from.
  std::size_t stub_nodes() const {
    return transit_domains * transit_nodes_per_domain *
           stub_domains_per_transit * nodes_per_stub;
  }

  /// Paper preset: large backbone, sparse edge (~4.8k nodes).
  static TransitStubConfig ts_large();
  /// Paper preset: small backbone, dense edge (~4.8k nodes).
  static TransitStubConfig ts_small();
};

/// Per-stub-domain attachment record. The generator connects every stub
/// domain to the backbone through exactly one stub-transit edge; that
/// single-gateway property is what makes the hierarchical latency oracle
/// exact, so it is exported explicitly rather than re-derived.
struct StubDomain {
  /// Members are the contiguous id range [first, first + size).
  NodeId first = kInvalidNode;
  std::uint32_t size = 0;
  /// The stub member carrying the attachment edge.
  NodeId gateway = kInvalidNode;
  /// The transit node the domain hangs off, and the attachment latency.
  NodeId transit = kInvalidNode;
  double attach_ms = 0.0;
};

/// The generated physical network plus per-node metadata.
struct TransitStubTopology {
  Graph graph;
  std::vector<NodeKind> kind;
  /// Transit domain index for transit nodes; owning stub domain index for
  /// stub nodes (stub domains are numbered globally).
  std::vector<std::uint32_t> domain;
  std::vector<NodeId> transit_nodes;
  std::vector<NodeId> stub_nodes;
  /// One record per stub domain, indexed by the global stub domain id
  /// stored in `domain`.
  std::vector<StubDomain> stub_domains;
  std::string preset_name;

  std::size_t stub_domain_count = 0;
};

/// Generates a connected transit-stub topology; deterministic per (config,
/// rng state).
TransitStubTopology make_transit_stub(const TransitStubConfig& config,
                                      Rng& rng);

}  // namespace propsim
