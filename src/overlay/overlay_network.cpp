#include "overlay/overlay_network.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/indexed_priority_queue.h"

namespace propsim {
namespace {

/// Erases row[at] the way LogicalGraph erases a neighbour: the last
/// entry moves into the freed position.
void erase_moving_last(std::vector<double>& row, std::size_t at) {
  row[at] = row.back();
  row.pop_back();
}

}  // namespace

OverlayNetwork::OverlayNetwork(LogicalGraph graph, Placement placement,
                               const LatencyOracle& oracle)
    : graph_(std::move(graph)),
      placement_(std::move(placement)),
      oracle_(&oracle),
      traffic_(oracle.physical().node_count()),
      weights_(graph_.slot_count()),
      min_link_ms_(std::numeric_limits<double>::infinity()) {
  PROPSIM_CHECK(placement_.slot_capacity() >= graph_.slot_count());
  PROPSIM_CHECK(placement_.host_capacity() ==
                oracle.physical().node_count());
  for (SlotId s = 0; s < graph_.slot_count(); ++s) {
    const std::span<const SlotId> neighbors = graph_.neighbors(s);
    if (neighbors.empty()) continue;
    PROPSIM_CHECK(placement_.slot_bound(s));
    std::vector<double>& row = weights_[s];
    row.reserve(neighbors.size());  // exact: rows carry no growth slack
    for (const SlotId v : neighbors) row.push_back(slot_latency(s, v));
  }
  const Graph& physical = oracle.physical();
  for (NodeId h = 0; h < physical.node_count(); ++h) {
    for (const Graph::Edge& e : physical.neighbors(h)) {
      min_link_ms_ = std::min(min_link_ms_, e.weight);
    }
  }
}

void OverlayNetwork::add_edge(SlotId a, SlotId b) {
  graph_.add_edge(a, b);
  weights_[a].push_back(slot_latency(a, b));
  weights_[b].push_back(slot_latency(b, a));
  audit_row(a);
  audit_row(b);
}

void OverlayNetwork::remove_edge(SlotId a, SlotId b) {
  const auto [at_a, at_b] = graph_.remove_edge(a, b);
  erase_moving_last(weights_[a], at_a);
  erase_moving_last(weights_[b], at_b);
  audit_row(a);
  audit_row(b);
}

void OverlayNetwork::swap_hosts(SlotId a, SlotId b) {
  placement_.swap_slots(a, b);
  reprice(a);
  reprice(b);
#ifdef PROPSIM_PARANOID
  // Audited only now: a neighbour shared by a and b is stale until
  // both reprices ran.
  for (const SlotId s : {a, b}) {
    audit_row(s);
    for (const SlotId v : graph_.neighbors(s)) audit_row(v);
  }
#endif
}

void OverlayNetwork::reprice(SlotId s) {
  const std::span<const SlotId> neighbors = graph_.neighbors(s);
  std::vector<double>& row = weights_[s];
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const SlotId v = neighbors[i];
    row[i] = slot_latency(s, v);
    const std::span<const SlotId> back = graph_.neighbors(v);
    const auto at = std::find(back.begin(), back.end(), s) - back.begin();
    weights_[v][static_cast<std::size_t>(at)] = slot_latency(v, s);
  }
}

SlotId OverlayNetwork::join(NodeId host) {
  const SlotId s = graph_.add_slot();
  placement_.ensure_slot_capacity(graph_.slot_count());
  placement_.bind(s, host);
  weights_.resize(graph_.slot_count());
  return s;
}

NodeId OverlayNetwork::leave(SlotId s) {
  // Last neighbour first, the order LogicalGraph::deactivate_slot uses.
  while (graph_.degree(s) > 0) remove_edge(s, graph_.neighbors(s).back());
  graph_.deactivate_slot(s);
  const NodeId host = placement_.host_of(s);
  placement_.unbind(s);
  return host;
}

void OverlayNetwork::rejoin(SlotId s, NodeId host) {
  graph_.reactivate_slot(s);
  placement_.bind(s, host);
}

void OverlayNetwork::audit_row(SlotId s) const {
#ifdef PROPSIM_PARANOID
  const std::span<const SlotId> neighbors = graph_.neighbors(s);
  PROPSIM_CHECK(weights_[s].size() == neighbors.size() &&
                "weight row out of step with its adjacency list");
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    PROPSIM_CHECK(std::bit_cast<std::uint64_t>(weights_[s][i]) ==
                      std::bit_cast<std::uint64_t>(
                          slot_latency(s, neighbors[i])) &&
                  "stored edge weight is stale");
  }
#else
  (void)s;
#endif
}

double OverlayNetwork::neighbor_latency_sum(SlotId s) const {
  audit_row(s);
  double sum = 0.0;
  for (const double w : neighbor_latencies(s)) sum += w;
  return sum;
}

double OverlayNetwork::average_logical_link_latency() const {
  PROPSIM_CHECK(graph_.edge_count() > 0);
  double sum = 0.0;
  for (const SlotId s : graph_.active_slots()) {
    const std::span<const SlotId> neighbors = graph_.neighbors(s);
    const std::span<const double> weights = neighbor_latencies(s);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] > s) sum += weights[i];
    }
  }
  return sum / static_cast<double>(graph_.edge_count());
}

bool OverlayNetwork::random_walk(SlotId from, SlotId first_hop,
                                 std::size_t ttl, Rng& rng,
                                 std::vector<SlotId>& path) const {
  PROPSIM_CHECK(ttl >= 1);
  PROPSIM_CHECK(graph_.is_active(from));
  PROPSIM_CHECK(graph_.has_edge(from, first_hop));
  // The paper's walk message carries visited identifiers to avoid
  // repetitive forwarding; here they are O(1) slot marks, so a step
  // costs O(degree).
  SlotMarks& visited = marks_;
  visited.reset(graph_.slot_count());
  path.clear();
  path.push_back(from);
  path.push_back(first_hop);
  visited.insert(from);
  visited.insert(first_hop);
  std::vector<SlotId>& candidates = walk_candidates_;
  while (path.size() < ttl + 1) {
    const SlotId here = path.back();
    candidates.clear();
    for (const SlotId v : graph_.neighbors(here)) {
      if (!visited.contains(v)) candidates.push_back(v);
    }
    if (candidates.empty()) return false;
    const SlotId chosen = rng.pick(candidates);
    visited.insert(chosen);
    path.push_back(chosen);
  }
  return true;
}

const std::vector<double>& OverlayNetwork::flood_latencies_into(
    FloodScratch& scratch, SlotId source,
    const std::vector<double>* processing_delay_ms,
    const LinkFilter* link_ok) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  scratch.dist.assign(graph_.slot_count(), kInf);
  std::vector<double>& dist = scratch.dist;
  PROPSIM_CHECK(graph_.is_active(source));
  if (processing_delay_ms != nullptr) {
    PROPSIM_CHECK(processing_delay_ms->size() == graph_.slot_count());
  }
  // A prior run leaves the queue empty (Dijkstra pops it dry), so only a
  // capacity change forces a rebuild.
  if (scratch.queue.capacity() != graph_.slot_count()) {
    scratch.queue = IndexedPriorityQueue<double>(graph_.slot_count());
  }
  IndexedPriorityQueue<double>& queue = scratch.queue;
  dist[source] = 0.0;
  queue.push_or_update(source, 0.0);
  while (!queue.empty()) {
    const auto u = static_cast<SlotId>(queue.pop());
    for (const SlotId v : graph_.neighbors(u)) {
      if (link_ok != nullptr && !(*link_ok)(u, v)) continue;
      double cost = slot_latency(u, v);
      if (processing_delay_ms != nullptr) {
        cost += (*processing_delay_ms)[v];
      }
      const double candidate = dist[u] + cost;
      if (candidate < dist[v]) {
        dist[v] = candidate;
        queue.push_or_update(v, candidate);
      }
    }
  }
  return dist;
}

double path_latency(const OverlayNetwork& net, std::span<const SlotId> path,
                    const std::vector<double>* processing_delay_ms) {
  PROPSIM_CHECK(!path.empty());
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += net.slot_latency(path[i - 1], path[i]);
    if (processing_delay_ms != nullptr) {
      total += (*processing_delay_ms)[path[i]];
    }
  }
  return total;
}

OverlayNetwork bind_overlay(LogicalGraph graph, std::span<const NodeId> hosts,
                            const LatencyOracle& oracle, obs::EventBus* trace) {
  PROPSIM_CHECK(hosts.size() == graph.slot_count());
  Placement placement(graph.slot_count(), oracle.physical().node_count());
  for (SlotId s = 0; s < graph.slot_count(); ++s) {
    placement.bind(s, hosts[s]);
  }
  OverlayNetwork net(std::move(graph), std::move(placement), oracle);
  net.set_trace(trace);
  if (trace != nullptr) {
    for (const SlotId s : net.graph().active_slots()) {
      trace->emit(obs::TraceEventKind::kJoin, s, net.placement().host_of(s));
    }
  }
  return net;
}

}  // namespace propsim
