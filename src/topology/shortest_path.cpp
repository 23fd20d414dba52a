#include "topology/shortest_path.h"

#include <limits>

#include "common/indexed_priority_queue.h"

namespace propsim {

std::vector<double> dijkstra(const CsrGraph& g, NodeId source) {
  PROPSIM_CHECK(source < g.node_count());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> distance(g.node_count(), kInf);
  IndexedPriorityQueue<double> queue(g.node_count());
  distance[source] = 0.0;
  queue.push_or_update(source, 0.0);
  while (!queue.empty()) {
    const auto u = static_cast<NodeId>(queue.pop());
    const double du = distance[u];
    const auto targets = g.targets(u);
    const auto weights = g.weights(u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const NodeId v = targets[i];
      const double candidate = du + weights[i];
      if (candidate < distance[v]) {
        distance[v] = candidate;
        queue.push_or_update(v, candidate);
      }
    }
  }
  return distance;
}

std::vector<double> dijkstra(const Graph& g, NodeId source) {
  return dijkstra(CsrGraph(g), source);
}

}  // namespace propsim
