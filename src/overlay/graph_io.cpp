#include "overlay/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
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

std::string graph_to_dot(const Graph& g, bool label_weights) {
  std::ostringstream os;
  os << "graph physical {\n  node [shape=point];\n";
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Graph::Edge& e : g.neighbors(u)) {
      if (e.to <= u) continue;
      os << "  n" << u << " -- n" << e.to;
      if (label_weights) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " [label=\"%.0f\"]", e.weight);
        os << buf;
      }
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string overlay_to_dot(const OverlayNetwork& net) {
  const LogicalGraph& g = net.graph();
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const SlotId s : g.active_slots()) {
    for (const SlotId t : g.neighbors(s)) {
      if (t > s) {
        const double lat = net.slot_latency(s, t);
        lo = std::min(lo, lat);
        hi = std::max(hi, lat);
      }
    }
  }
  std::ostringstream os;
  os << "graph overlay {\n  node [shape=circle fontsize=8];\n";
  for (const SlotId s : g.active_slots()) {
    os << "  s" << s << " [label=\"" << s << "/"
       << net.placement().host_of(s) << "\"];\n";
  }
  for (const SlotId s : g.active_slots()) {
    for (const SlotId t : g.neighbors(s)) {
      if (t <= s) continue;
      const double lat = net.slot_latency(s, t);
      // Hue 0.33 (green, short link) -> 0.0 (red, long link).
      const double frac = hi > lo ? (lat - lo) / (hi - lo) : 0.0;
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "  s%u -- s%u [color=\"%.3f 1.0 0.8\"];\n", s, t,
                    0.33 * (1.0 - frac));
      os << buf;
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace propsim
