// Graph persistence and visualization export.
//
// Edge-list text format (read back by snapshot_from_edge_list in
// analysis/lint_rules.h, the reader propsim_lint uses):
//   # comment
//   nodes <N>
//   <u> <v> <weight>
//
// DOT export renders the physical network or an overlay snapshot for
// graphviz; overlay edges can be colored by their physical latency so
// mismatch is visible at a glance.
#pragma once

#include <string>

#include "overlay/overlay_network.h"
#include "topology/graph.h"

namespace propsim {

/// Serializes a graph to the edge-list format.
std::string graph_to_edge_list(const Graph& g);

/// Writes an edge-list file.
void save_graph(const Graph& g, const std::string& path);

/// Graphviz DOT of a physical graph (undirected; weight as edge label
/// when label_weights is set).
std::string graph_to_dot(const Graph& g, bool label_weights = false);

/// Graphviz DOT of an overlay: one node per active slot (labelled
/// "slot/host"), edges colored green→red by physical latency relative
/// to the overlay's current min/max link latency.
std::string overlay_to_dot(const OverlayNetwork& net);

}  // namespace propsim
