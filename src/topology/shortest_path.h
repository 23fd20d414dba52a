// Single-source shortest paths over the physical graph.
#pragma once

#include <vector>

#include "topology/graph.h"

namespace propsim {

/// Dijkstra from `source` over a CSR snapshot; result[i] is the latency of
/// the shortest path source -> i, or +infinity if unreachable. The CSR
/// form keeps each node's neighbour order, so the relaxations (and the
/// distances, bit for bit) are those of a walk over the `Graph`.
std::vector<double> dijkstra(const CsrGraph& g, NodeId source);

/// As above over a `Graph`: snapshots it and forwards to the CSR form.
std::vector<double> dijkstra(const Graph& g, NodeId source);

}  // namespace propsim
