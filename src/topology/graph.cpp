#include "topology/graph.h"

#include <algorithm>

namespace propsim {

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Graph::add_edge(NodeId u, NodeId v, double weight) {
  PROPSIM_CHECK(u < adjacency_.size());
  PROPSIM_CHECK(v < adjacency_.size());
  PROPSIM_CHECK(u != v);
  PROPSIM_CHECK(weight > 0.0);
  adjacency_[u].push_back(Edge{v, weight});
  adjacency_[v].push_back(Edge{u, weight});
  ++edge_count_;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  for (const Edge& e : neighbors(u)) {
    if (e.to == v) return true;
  }
  return false;
}

double Graph::edge_weight(NodeId u, NodeId v) const {
  for (const Edge& e : neighbors(u)) {
    if (e.to == v) return e.weight;
  }
  PROPSIM_CHECK(false && "edge_weight: edge not present");
  return 0.0;
}

std::size_t Graph::reachable_count(NodeId start) const {
  PROPSIM_CHECK(start < adjacency_.size());
  std::vector<bool> seen(adjacency_.size(), false);
  std::vector<NodeId> frontier{start};
  seen[start] = true;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const Edge& e : adjacency_[u]) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        ++visited;
        frontier.push_back(e.to);
      }
    }
  }
  return visited;
}

bool Graph::is_connected() const {
  if (adjacency_.empty()) return true;
  return reachable_count(0) == adjacency_.size();
}

std::size_t Graph::min_degree() const {
  PROPSIM_CHECK(!adjacency_.empty());
  std::size_t best = adjacency_.front().size();
  for (const auto& adj : adjacency_) best = std::min(best, adj.size());
  return best;
}

std::size_t Graph::max_degree() const {
  PROPSIM_CHECK(!adjacency_.empty());
  std::size_t best = adjacency_.front().size();
  for (const auto& adj : adjacency_) best = std::max(best, adj.size());
  return best;
}

double Graph::average_degree() const {
  if (adjacency_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edge_count_) /
         static_cast<double>(adjacency_.size());
}

CsrGraph::CsrGraph(const Graph& g) {
  const std::size_t n = g.node_count();
  offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    offsets_[u + 1] = offsets_[u] + g.degree(u);
  }
  targets_.resize(offsets_[n]);
  weights_.resize(offsets_[n]);
  for (NodeId u = 0; u < n; ++u) {
    std::size_t at = offsets_[u];
    for (const Graph::Edge& e : g.neighbors(u)) {
      targets_[at] = e.to;
      weights_[at] = e.weight;
      ++at;
    }
  }
}

}  // namespace propsim
