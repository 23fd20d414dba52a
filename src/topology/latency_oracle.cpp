#include "topology/latency_oracle.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "topology/shortest_path.h"

namespace propsim {
namespace {

constexpr std::size_t kMaxShards = 16;

}  // namespace

LatencyOracle::LatencyOracle(const Graph& physical,
                             LatencyOracleOptions options)
    : physical_(physical), options_(options), csr_(physical) {
  const std::size_t cap = options_.max_cached_rows;
  const std::size_t shard_count =
      cap == 0 ? kMaxShards : std::min(kMaxShards, cap);
  // Distribute the row budget across shards, rounding down, so the total
  // resident count can never exceed the configured cap.
  per_shard_cap_ = cap == 0 ? 0 : cap / shard_count;
  shards_ = std::vector<Shard>(shard_count);
}

LatencyOracle::LatencyOracle(const TransitStubTopology& topo,
                             LatencyOracleOptions options)
    : physical_(topo.graph), options_(options) {
  build_hierarchical(topo);
  hierarchical_ = true;
}

// --------------------------------------------------- hierarchical engine

void LatencyOracle::build_hierarchical(const TransitStubTopology& topo) {
  const std::size_t n = physical_.node_count();
  PROPSIM_CHECK(!topo.transit_nodes.empty());
  PROPSIM_CHECK(topo.stub_domains.size() == topo.stub_domain_count);

  hosts_.assign(n, HostRecord{});

  // Backbone APSP over the transit-only subgraph. Exact: a path between
  // transit nodes cannot shortcut through a stub domain, because it would
  // have to traverse that domain's single attachment edge twice.
  backbone_n_ = topo.transit_nodes.size();
  std::vector<std::uint32_t> backbone_index(n, kNoDomain);
  for (std::size_t i = 0; i < backbone_n_; ++i) {
    backbone_index[topo.transit_nodes[i]] = static_cast<std::uint32_t>(i);
  }
  Graph backbone(backbone_n_);
  for (std::size_t i = 0; i < backbone_n_; ++i) {
    const NodeId t = topo.transit_nodes[i];
    hosts_[t].anchor = static_cast<std::uint32_t>(i);
    for (const Graph::Edge& e : physical_.neighbors(t)) {
      const std::uint32_t j = backbone_index[e.to];
      if (j != kNoDomain && j > i) {
        backbone.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j),
                          e.weight);
      }
    }
  }
  backbone_dist_.assign(backbone_n_ * backbone_n_, 0.0);
  const CsrGraph backbone_csr(backbone);
  for (std::size_t i = 0; i < backbone_n_; ++i) {
    const auto row = dijkstra(backbone_csr, static_cast<NodeId>(i));
    for (std::size_t j = 0; j < backbone_n_; ++j) {
      PROPSIM_CHECK(row[j] != std::numeric_limits<double>::infinity());
      backbone_dist_[i * backbone_n_ + j] = row[j];
    }
  }

  // Per-stub-domain local distance tables plus each member's cost up to
  // its anchor transit node.
  domains_.resize(topo.stub_domains.size());
  for (std::size_t d = 0; d < topo.stub_domains.size(); ++d) {
    const StubDomain& meta = topo.stub_domains[d];
    PROPSIM_CHECK(meta.size > 0);
    PROPSIM_CHECK(meta.first + meta.size <= n);
    PROPSIM_CHECK(meta.gateway >= meta.first &&
                  meta.gateway < meta.first + meta.size);
    PROPSIM_CHECK(backbone_index[meta.transit] != kNoDomain);

    DomainTable& table = domains_[d];
    table.first = meta.first;
    table.size = meta.size;

    // Domain-local subgraph; while collecting it, verify the
    // single-gateway property the exactness argument rests on.
    Graph local(meta.size);
    std::size_t attachment_edges = 0;
    for (std::uint32_t i = 0; i < meta.size; ++i) {
      const NodeId v = meta.first + i;
      for (const Graph::Edge& e : physical_.neighbors(v)) {
        if (e.to >= meta.first && e.to < meta.first + meta.size) {
          if (e.to > v) {
            local.add_edge(static_cast<NodeId>(i),
                           static_cast<NodeId>(e.to - meta.first), e.weight);
          }
        } else {
          PROPSIM_CHECK(v == meta.gateway && e.to == meta.transit);
          ++attachment_edges;
        }
      }
    }
    PROPSIM_CHECK(attachment_edges == 1);

    table.dist.resize(static_cast<std::size_t>(meta.size) * meta.size);
    const std::uint32_t gateway_local = meta.gateway - meta.first;
    const CsrGraph local_csr(local);
    for (std::uint32_t i = 0; i < meta.size; ++i) {
      const auto row = dijkstra(local_csr, static_cast<NodeId>(i));
      for (std::uint32_t j = 0; j < meta.size; ++j) {
        PROPSIM_CHECK(row[j] != std::numeric_limits<double>::infinity());
        table.dist[static_cast<std::size_t>(i) * meta.size + j] = row[j];
      }
      hosts_[meta.first + i] = {row[gateway_local] + meta.attach_ms,
                                static_cast<std::uint32_t>(d), i,
                                backbone_index[meta.transit]};
    }
  }
}

// ------------------------------------------------ Dijkstra-row fallback

LatencyOracle::Shard& LatencyOracle::shard_for(NodeId source) const {
  return shards_[source % shards_.size()];
}

std::shared_ptr<const std::vector<double>> LatencyOracle::find_cached(
    NodeId source) const {
  Shard& shard = shard_for(source);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.rows.find(source);
  if (it == shard.rows.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.row;
}

std::shared_ptr<const std::vector<double>> LatencyOracle::row_for(
    NodeId source) const {
  if (auto row = find_cached(source)) return row;
  // Compute outside the lock: the Dijkstra dominates, and two threads
  // racing on the same source at worst duplicate work, never state — the
  // second insert loses and adopts the published row.
  auto fresh =
      std::make_shared<const std::vector<double>>(dijkstra(csr_, source));
  Shard& shard = shard_for(source);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [it, inserted] = shard.rows.try_emplace(source);
  if (!inserted) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second.row;
  }
  shard.lru.push_front(source);
  it->second = Shard::Entry{std::move(fresh), shard.lru.begin()};
  auto row = it->second.row;
  if (per_shard_cap_ != 0 && shard.rows.size() > per_shard_cap_) {
    const NodeId victim = shard.lru.back();
    shard.lru.pop_back();
    shard.rows.erase(victim);
  }
  return row;
}

double LatencyOracle::row_latency(NodeId a, NodeId b) const {
  // Canonicalize on the smaller id. Answering from whichever row happens
  // to be cached would make the result depend on cache state: with
  // real-valued weights (Waxman), dijkstra(a)[b] and dijkstra(b)[a] can
  // differ in the last ulp. Canonical rows keep latency(a, b) exactly
  // symmetric and reproducible regardless of query history.
  return (*row_for(std::min(a, b)))[std::max(a, b)];
}

// ------------------------------------------------------- shared surface

DistanceRow LatencyOracle::distances_from(NodeId source) const {
  PROPSIM_CHECK(source < physical_.node_count());
  if (hierarchical_) {
    auto row = std::make_shared<std::vector<double>>(physical_.node_count());
    for (NodeId v = 0; v < physical_.node_count(); ++v) {
      (*row)[v] = v == source ? 0.0 : hierarchical_latency(source, v);
    }
    return DistanceRow(std::move(row));
  }
  return DistanceRow(row_for(source));
}

std::size_t LatencyOracle::cached_sources() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    count += shard.rows.size();
  }
  return count;
}

}  // namespace propsim
