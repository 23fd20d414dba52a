#include "overlay/logical_graph.h"

#include <algorithm>

namespace propsim {

SlotId LogicalGraph::add_slot() {
  adjacency_.emplace_back();
  active_.push_back(true);
  next_membership_stamp();
  ++active_count_;
  return static_cast<SlotId>(adjacency_.size() - 1);
}

void LogicalGraph::deactivate_slot(SlotId s) {
  PROPSIM_CHECK(s < adjacency_.size());
  PROPSIM_CHECK(active_[s]);
  // Detach from every neighbor first.
  while (!adjacency_[s].empty()) {
    remove_edge(s, adjacency_[s].back());
  }
  active_[s] = false;
  // An isolated slot's departure moves the version too.
  next_membership_stamp();
  --active_count_;
}

void LogicalGraph::reactivate_slot(SlotId s) {
  PROPSIM_CHECK(s < adjacency_.size());
  PROPSIM_CHECK(!active_[s]);
  PROPSIM_CHECK(adjacency_[s].empty());
  active_[s] = true;
  next_membership_stamp();
  ++active_count_;
}

void LogicalGraph::add_edge(SlotId a, SlotId b) {
  PROPSIM_CHECK(a < adjacency_.size() && b < adjacency_.size());
  PROPSIM_CHECK(a != b);
  PROPSIM_CHECK(active_[a] && active_[b]);
  PROPSIM_CHECK(!has_edge(a, b));
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  next_stamp();
  ++edge_count_;
}

std::size_t LogicalGraph::erase_directed(SlotId from, SlotId to) {
  auto& adj = adjacency_[from];
  const auto at = static_cast<std::size_t>(
      std::find(adj.begin(), adj.end(), to) - adj.begin());
  PROPSIM_CHECK(at < adj.size());
  adj[at] = adj.back();
  adj.pop_back();
  return at;
}

std::pair<std::size_t, std::size_t> LogicalGraph::remove_edge(SlotId a,
                                                              SlotId b) {
  PROPSIM_CHECK(a < adjacency_.size() && b < adjacency_.size());
  const std::size_t at_a = erase_directed(a, b);
  const std::size_t at_b = erase_directed(b, a);
  PROPSIM_CHECK(edge_count_ > 0);
  --edge_count_;
  next_stamp();
  return {at_a, at_b};
}

bool LogicalGraph::has_edge(SlotId a, SlotId b) const {
  PROPSIM_DCHECK(a < adjacency_.size() && b < adjacency_.size());
  const auto& adj = adjacency_[a];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

std::size_t LogicalGraph::min_active_degree() const {
  PROPSIM_CHECK(active_count_ > 0);
  std::size_t best = static_cast<std::size_t>(-1);
  for (std::size_t s = 0; s < adjacency_.size(); ++s) {
    if (active_[s]) best = std::min(best, adjacency_[s].size());
  }
  return best;
}

double LogicalGraph::average_active_degree() const {
  if (active_count_ == 0) return 0.0;
  std::size_t sum = 0;
  for (std::size_t s = 0; s < adjacency_.size(); ++s) {
    if (active_[s]) sum += adjacency_[s].size();
  }
  return static_cast<double>(sum) / static_cast<double>(active_count_);
}

bool LogicalGraph::active_subgraph_connected() const {
  if (active_count_ == 0) return true;
  SlotId start = kInvalidSlot;
  for (std::size_t s = 0; s < adjacency_.size(); ++s) {
    if (active_[s]) {
      start = static_cast<SlotId>(s);
      break;
    }
  }
  std::vector<bool> seen(adjacency_.size(), false);
  std::vector<SlotId> stack{start};
  seen[start] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const SlotId u = stack.back();
    stack.pop_back();
    for (const SlotId v : adjacency_[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  return visited == active_count_;
}

std::vector<std::size_t> LogicalGraph::degree_multiset() const {
  std::vector<std::size_t> degrees;
  degrees.reserve(active_count_);
  for (std::size_t s = 0; s < adjacency_.size(); ++s) {
    if (active_[s]) degrees.push_back(adjacency_[s].size());
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

std::vector<SlotId> LogicalGraph::active_slots() const {
  std::vector<SlotId> out;
  out.reserve(active_count_);
  for (std::size_t s = 0; s < adjacency_.size(); ++s) {
    if (active_[s]) out.push_back(static_cast<SlotId>(s));
  }
  return out;
}

}  // namespace propsim
