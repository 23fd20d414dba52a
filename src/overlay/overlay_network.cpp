#include "overlay/overlay_network.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/indexed_priority_queue.h"

namespace propsim {

OverlayNetwork::OverlayNetwork(LogicalGraph graph, Placement placement,
                               const LatencyOracle& oracle)
    : graph_(std::move(graph)),
      placement_(std::move(placement)),
      oracle_(&oracle),
      traffic_(oracle.physical().node_count()) {
  PROPSIM_CHECK(placement_.slot_capacity() >= graph_.slot_count());
  PROPSIM_CHECK(placement_.host_capacity() ==
                oracle.physical().node_count());
}

double OverlayNetwork::neighbor_latency_sum(SlotId s) const {
  const std::span<const SlotId> neighbors = graph_.neighbors(s);
  // The adjacency stamp pins the neighbour list and its order. A host
  // change among s and its neighbours stamps a slot with a value larger
  // than any earlier stamp, so it raises the max.
  std::uint64_t hosts = placement_.stamp(s);
  for (const SlotId v : neighbors) {
    hosts = std::max(hosts, placement_.stamp(v));
  }
  if (s >= sum_memo_.size()) sum_memo_.resize(graph_.slot_count());
  SumMemo& memo = sum_memo_[s];
  const std::uint64_t adjacency = graph_.stamp(s);
  if (memo.adjacency == adjacency && memo.hosts == hosts) {
#ifdef PROPSIM_PARANOID
    double fresh = 0.0;
    for (const SlotId v : neighbors) fresh += slot_latency(s, v);
    PROPSIM_CHECK(std::bit_cast<std::uint64_t>(fresh) ==
                      std::bit_cast<std::uint64_t>(memo.sum) &&
                  "memoised neighbour-latency sum is stale");
#endif
    return memo.sum;
  }
  double sum = 0.0;
  for (const SlotId v : neighbors) sum += slot_latency(s, v);
  memo = {adjacency, hosts, sum};
  return sum;
}

double OverlayNetwork::average_logical_link_latency() const {
  PROPSIM_CHECK(graph_.edge_count() > 0);
  double sum = 0.0;
  for (const SlotId s : graph_.active_slots()) {
    for (const SlotId v : graph_.neighbors(s)) {
      if (v > s) sum += slot_latency(s, v);
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

std::vector<double> OverlayNetwork::flood_latencies(
    SlotId source, const std::vector<double>* processing_delay_ms,
    const LinkFilter* link_ok) const {
  FloodScratch scratch;
  flood_latencies_into(scratch, source, processing_delay_ms, link_ok);
  return std::move(scratch.dist);
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

std::vector<std::uint32_t> OverlayNetwork::hop_distances(
    SlotId source, std::uint32_t max_hops) const {
  FloodScratch scratch;
  hop_distances_into(scratch, source, max_hops);
  return std::move(scratch.hops);
}

const std::vector<std::uint32_t>& OverlayNetwork::hop_distances_into(
    FloodScratch& scratch, SlotId source, std::uint32_t max_hops) const {
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  scratch.hops.assign(graph_.slot_count(), kUnreached);
  std::vector<std::uint32_t>& dist = scratch.hops;
  PROPSIM_CHECK(graph_.is_active(source));
  dist[source] = 0;
  scratch.frontier.assign(1, source);
  std::vector<SlotId>& frontier = scratch.frontier;
  std::vector<SlotId>& next = scratch.next;
  for (std::uint32_t hop = 1; hop <= max_hops && !frontier.empty(); ++hop) {
    next.clear();
    for (const SlotId u : frontier) {
      for (const SlotId v : graph_.neighbors(u)) {
        if (dist[v] == kUnreached) {
          dist[v] = hop;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

}  // namespace propsim
