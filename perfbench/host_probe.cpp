#include "host_probe.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace propsim::perfbench {
namespace {

constexpr std::uint32_t kNodes = 4096;
constexpr std::uint32_t kDegree = 8;
constexpr std::uint32_t kSources = 24;
constexpr std::uint64_t kCallbacks = 200000;
constexpr std::uint64_t kLiveCallbacks = 64;

struct Edge {
  std::uint32_t to;
  double weight;
};

/// A fixed pseudo-random kDegree-regular out-graph (xorshift64 stream).
const std::vector<Edge>& probe_graph() {
  static const std::vector<Edge> edges = [] {
    std::vector<Edge> e;
    e.reserve(kNodes * kDegree);
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t i = 0; i < kNodes * kDegree; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e.push_back({static_cast<std::uint32_t>(x % kNodes),
                   1.0 + static_cast<double>(x >> 40) / 1e6});
    }
    return e;
  }();
  return edges;
}

}  // namespace

// Keeps the probe's work observable so the optimizer cannot drop it.
volatile double probe_sink = 0.0;

double host_probe_s() {
  const std::vector<Edge>& edges = probe_graph();
  const auto t0 = std::chrono::steady_clock::now();

  double sum = 0.0;
  std::vector<double> dist(kNodes);
  using Item = std::pair<double, std::uint32_t>;
  for (std::uint32_t src = 0; src < kSources; ++src) {
    std::fill(dist.begin(), dist.end(), 1e300);
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[src] = 0.0;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (std::uint32_t k = 0; k < kDegree; ++k) {
        const Edge& e = edges[u * kDegree + k];
        if (d + e.weight < dist[e.to]) {
          dist[e.to] = d + e.weight;
          heap.emplace(d + e.weight, e.to);
        }
      }
    }
    for (const double d : dist) sum += d < 1e300 ? d : 0.0;
  }

  std::unordered_map<std::uint64_t, std::function<double()>> callbacks;
  for (std::uint64_t i = 0; i < kCallbacks; ++i) {
    callbacks.emplace(i, [i, sum] { return sum + static_cast<double>(i); });
    if (i >= kLiveCallbacks) {
      auto node = callbacks.extract(i - kLiveCallbacks);
      sum += node.mapped()() * 1e-12;
    }
  }

  probe_sink = sum;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace propsim::perfbench
