#include "topology/transit_stub.h"

#include <algorithm>
#include <numeric>

namespace propsim {
namespace {

/// Adds a connected random subgraph over `members` (already nodes of g):
/// a random spanning tree first, then each remaining pair independently
/// with probability `extra_edge_probability`.
void connect_random_subgraph(Graph& g, std::span<const NodeId> members,
                             double extra_edge_probability, double latency,
                             Rng& rng) {
  if (members.size() <= 1) return;
  // Random spanning tree: attach each node (in random order) to a uniformly
  // chosen earlier node. This yields a random recursive tree, which is a
  // standard connected backbone for GT-ITM-style domain graphs.
  std::vector<NodeId> order(members.begin(), members.end());
  rng.shuffle(order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform(i));
    g.add_edge(order[i], order[j], latency);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      if (g.has_edge(order[i], order[j])) continue;
      if (rng.bernoulli(extra_edge_probability)) {
        g.add_edge(order[i], order[j], latency);
      }
    }
  }
}

}  // namespace

TransitStubConfig TransitStubConfig::ts_large() {
  // Large backbone (10 x 4 transit nodes), sparse edge (40-node stubs);
  // 10*4*(1 + 3*40) = 4840 nodes.
  TransitStubConfig c;
  c.transit_domains = 10;
  c.transit_nodes_per_domain = 4;
  c.stub_domains_per_transit = 3;
  c.nodes_per_stub = 40;
  c.extra_interdomain_edges = 5;
  return c;
}

TransitStubConfig TransitStubConfig::ts_small() {
  // Small backbone (2 x 4 transit nodes), dense edge (200-node stubs);
  // 2*4*(1 + 3*200) = 4808 nodes.
  TransitStubConfig c;
  c.transit_domains = 2;
  c.transit_nodes_per_domain = 4;
  c.stub_domains_per_transit = 3;
  c.nodes_per_stub = 200;
  c.stub_edge_probability = 0.02;
  c.extra_interdomain_edges = 1;
  return c;
}

TransitStubTopology make_transit_stub(const TransitStubConfig& config,
                                      Rng& rng) {
  PROPSIM_CHECK(config.transit_domains >= 1);
  PROPSIM_CHECK(config.transit_nodes_per_domain >= 1);
  PROPSIM_CHECK(config.nodes_per_stub >= 1);

  TransitStubTopology topo;
  topo.graph = Graph(config.total_nodes());
  topo.kind.assign(config.total_nodes(), NodeKind::kStub);
  topo.domain.assign(config.total_nodes(), 0);

  NodeId next = 0;
  std::vector<std::vector<NodeId>> transit_by_domain(config.transit_domains);

  // 1. Transit nodes and intra-domain backbone graphs.
  for (std::size_t d = 0; d < config.transit_domains; ++d) {
    for (std::size_t i = 0; i < config.transit_nodes_per_domain; ++i) {
      topo.kind[next] = NodeKind::kTransit;
      topo.domain[next] = static_cast<std::uint32_t>(d);
      transit_by_domain[d].push_back(next);
      topo.transit_nodes.push_back(next);
      ++next;
    }
    connect_random_subgraph(topo.graph, transit_by_domain[d],
                            config.transit_edge_probability,
                            TransitStubConfig::kTransitTransitMs, rng);
  }

  // 2. Inter-domain backbone: spanning tree over domains + shortcuts, each
  //    edge landing on uniformly chosen transit nodes of the two domains.
  if (config.transit_domains > 1) {
    std::vector<std::size_t> dorder(config.transit_domains);
    std::iota(dorder.begin(), dorder.end(), std::size_t{0});
    rng.shuffle(dorder);
    for (std::size_t i = 1; i < dorder.size(); ++i) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform(i));
      const NodeId a = rng.pick(transit_by_domain[dorder[i]]);
      const NodeId b = rng.pick(transit_by_domain[dorder[j]]);
      topo.graph.add_edge(a, b, TransitStubConfig::kTransitTransitMs);
    }
    for (std::size_t k = 0; k < config.extra_interdomain_edges; ++k) {
      const std::size_t d1 =
          static_cast<std::size_t>(rng.uniform(config.transit_domains));
      std::size_t d2 =
          static_cast<std::size_t>(rng.uniform(config.transit_domains - 1));
      if (d2 >= d1) ++d2;
      const NodeId a = rng.pick(transit_by_domain[d1]);
      const NodeId b = rng.pick(transit_by_domain[d2]);
      if (!topo.graph.has_edge(a, b)) {
        topo.graph.add_edge(a, b, TransitStubConfig::kTransitTransitMs);
      }
    }
  }

  // 3. Stub domains hanging off each transit node.
  std::uint32_t stub_domain_index = 0;
  std::vector<NodeId> stub_members;
  for (const NodeId transit : topo.transit_nodes) {
    for (std::size_t s = 0; s < config.stub_domains_per_transit; ++s) {
      stub_members.clear();
      for (std::size_t i = 0; i < config.nodes_per_stub; ++i) {
        topo.kind[next] = NodeKind::kStub;
        topo.domain[next] = stub_domain_index;
        stub_members.push_back(next);
        topo.stub_nodes.push_back(next);
        ++next;
      }
      connect_random_subgraph(topo.graph, stub_members,
                              config.stub_edge_probability,
                              TransitStubConfig::kStubStubMs, rng);
      // Attach the stub domain to its transit node through a random member.
      // Exactly one attachment edge per domain — the hierarchical oracle
      // relies on this (see StubDomain).
      const NodeId gateway = rng.pick(stub_members);
      topo.graph.add_edge(gateway, transit, TransitStubConfig::kStubTransitMs);
      topo.stub_domains.push_back(
          StubDomain{stub_members.front(),
                     static_cast<std::uint32_t>(stub_members.size()), gateway,
                     transit, TransitStubConfig::kStubTransitMs});
      ++stub_domain_index;
    }
  }
  topo.stub_domain_count = stub_domain_index;

  PROPSIM_CHECK(next == config.total_nodes());
  PROPSIM_CHECK(topo.graph.is_connected());
  return topo;
}

}  // namespace propsim
