// Weighted undirected graph used for the physical (underlay) network.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace propsim {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Adjacency-list weighted undirected graph. Node ids are dense
/// [0, node_count). Edge weights are latencies in milliseconds.
class Graph {
 public:
  struct Edge {
    NodeId to;
    double weight;
  };

  Graph() = default;
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  NodeId add_node();

  /// Adds an undirected edge; parallel edges are allowed but propsim's
  /// generators never create them. Requires u != v and positive weight.
  void add_edge(NodeId u, NodeId v, double weight);

  std::span<const Edge> neighbors(NodeId u) const {
    PROPSIM_DCHECK(u < adjacency_.size());
    return adjacency_[u];
  }

  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  /// True if an edge u—v exists (linear scan of u's adjacency).
  bool has_edge(NodeId u, NodeId v) const;

  /// Weight of edge u—v; requires the edge to exist.
  double edge_weight(NodeId u, NodeId v) const;

  /// True if every node is reachable from node 0 (or the graph is empty).
  bool is_connected() const;

  /// Number of nodes reachable from `start`.
  std::size_t reachable_count(NodeId start) const;

  std::size_t min_degree() const;
  std::size_t max_degree() const;
  double average_degree() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
  std::size_t edge_count_ = 0;
};

/// Compressed-sparse-row snapshot of a Graph: all adjacency in three flat
/// arrays, so traversal-heavy code (Dijkstra, the latency oracle) walks
/// contiguous memory instead of chasing one heap vector per node. Build
/// once after the graph is final; the snapshot does not track later edits.
class CsrGraph {
 public:
  CsrGraph() = default;
  explicit CsrGraph(const Graph& g);

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t edge_count() const { return targets_.size() / 2; }

  /// Neighbor ids of `u`; weights() is index-aligned with this span.
  std::span<const NodeId> targets(NodeId u) const {
    PROPSIM_DCHECK(u + 1 < offsets_.size());
    return {targets_.data() + offsets_[u],
            offsets_[u + 1] - offsets_[u]};
  }
  std::span<const double> weights(NodeId u) const {
    PROPSIM_DCHECK(u + 1 < offsets_.size());
    return {weights_.data() + offsets_[u],
            offsets_[u + 1] - offsets_[u]};
  }

 private:
  // offsets_[u]..offsets_[u+1] brackets u's slice of targets_/weights_.
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<double> weights_;
};

}  // namespace propsim
