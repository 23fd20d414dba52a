// Graph persistence.
//
// Edge-list text format (read back by snapshot_from_edge_list in
// analysis/lint_rules.h, the reader propsim_lint uses):
//   # comment
//   nodes <N>
//   <u> <v> <weight>
#pragma once

#include <string>

#include "topology/graph.h"

namespace propsim {

/// Serializes a graph to the edge-list format.
std::string graph_to_edge_list(const Graph& g);

/// Writes an edge-list file.
void save_graph(const Graph& g, const std::string& path);

}  // namespace propsim
