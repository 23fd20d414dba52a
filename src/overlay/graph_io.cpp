#include "overlay/graph_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace propsim {

std::string graph_to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << "# propsim edge list\n";
  os << "nodes " << g.node_count() << "\n";
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Graph::Edge& e : g.neighbors(u)) {
      if (e.to > u) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%u %u %.17g\n", u, e.to, e.weight);
        os << buf;
      }
    }
  }
  return os.str();
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  PROPSIM_CHECK(out.good());
  out << graph_to_edge_list(g);
  PROPSIM_CHECK(out.good());
}

}  // namespace propsim
