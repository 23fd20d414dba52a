// Latency oracle over the physical network: d(host_a, host_b) in O(1).
//
// Protocols and metrics ask for pairwise latencies millions of times. The
// oracle has two engines behind one interface:
//
//  * Hierarchical (transit-stub graphs): precomputes APSP over the small
//    transit backbone, a local distance table per stub domain, and each
//    node's cost up to its anchor transit node. latency(a,b) is then one
//    table lookup (same stub domain) or up[a] + backbone + up[b] —
//    exact, because every stub domain attaches to the backbone through a
//    single gateway edge, so no shortest path re-enters a foreign stub
//    domain. Resident state is O(V * stub_size + T^2), not O(V^2).
//
//  * Dijkstra rows (any graph, e.g. Waxman): one Dijkstra per distinct
//    source over a CSR snapshot, rows kept in a sharded, LRU-bounded
//    cache so memory stays at O(max_cached_rows * V) regardless of how
//    many sources are queried.
//
// Both engines are safe for concurrent queries from many threads.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "topology/graph.h"
#include "topology/transit_stub.h"

namespace propsim {

struct LatencyOracleOptions {
  /// Upper bound on resident Dijkstra rows in fallback mode; least
  /// recently used rows are evicted beyond it. 0 = unbounded.
  std::size_t max_cached_rows = 1024;
};

/// Shared-ownership view of one source's full distance row. Holding a
/// DistanceRow keeps the row alive even if the oracle's LRU cache evicts
/// it concurrently.
class DistanceRow {
 public:
  DistanceRow() = default;
  explicit DistanceRow(std::shared_ptr<const std::vector<double>> row)
      : row_(std::move(row)) {}

  double operator[](std::size_t i) const { return (*row_)[i]; }
  std::size_t size() const { return row_ ? row_->size() : 0; }
  std::span<const double> span() const {
    return row_ ? std::span<const double>(*row_) : std::span<const double>();
  }

 private:
  std::shared_ptr<const std::vector<double>> row_;
};

class LatencyOracle {
 public:
  /// Dijkstra-row engine over an arbitrary graph. The oracle keeps a
  /// reference to `physical`; the graph must outlive it.
  explicit LatencyOracle(const Graph& physical,
                         LatencyOracleOptions options = {});

  /// Hierarchical engine over a transit-stub topology (exact; verified
  /// against Dijkstra by the test suite). Keeps a reference to
  /// `topo.graph`; the topology must outlive the oracle.
  explicit LatencyOracle(const TransitStubTopology& topo,
                         LatencyOracleOptions options = {});

  LatencyOracle(const LatencyOracle&) = delete;
  LatencyOracle& operator=(const LatencyOracle&) = delete;

  const Graph& physical() const { return physical_; }

  /// True when the O(1) hierarchical engine answers queries.
  bool hierarchical() const { return hierarchical_; }

  /// Shortest-path latency between two physical hosts, in milliseconds.
  /// Thread-safe in both modes. Inline: the hierarchical lookup is the
  /// innermost operation of every PROP attempt.
  double latency(NodeId a, NodeId b) const {
    PROPSIM_DCHECK(a < physical_.node_count());
    PROPSIM_DCHECK(b < physical_.node_count());
    if (a == b) return 0.0;
    if (hierarchical_) return hierarchical_latency(a, b);
    return row_latency(a, b);
  }

  /// Full distance vector from `source`. In fallback mode the row comes
  /// from (or enters) the LRU cache; in hierarchical mode it is
  /// materialized on demand in O(V) — prefer latency() for point queries.
  DistanceRow distances_from(NodeId source) const;

  /// Dijkstra rows currently resident (0 in hierarchical mode, which
  /// keeps no rows). Never exceeds options.max_cached_rows.
  std::size_t cached_sources() const;

 private:
  // ---- Dijkstra-row fallback engine ----
  struct Shard {
    struct Entry {
      std::shared_ptr<const std::vector<double>> row;
      std::list<NodeId>::iterator lru_it;
    };
    mutable std::mutex mutex;
    // det-ok(D1): keyed cache probe; eviction order comes from the list
    std::unordered_map<NodeId, Entry> rows;
    std::list<NodeId> lru;  // front = most recently used
  };

  Shard& shard_for(NodeId source) const;
  /// Cached row for `source` (touching LRU), or nullptr on miss.
  std::shared_ptr<const std::vector<double>> find_cached(NodeId source) const;
  std::shared_ptr<const std::vector<double>> row_for(NodeId source) const;
  /// latency() in fallback mode, a != b.
  double row_latency(NodeId a, NodeId b) const;

  // ---- Hierarchical transit-stub engine ----
  void build_hierarchical(const TransitStubTopology& topo);

  double hierarchical_latency(NodeId a, NodeId b) const {
    const HostRecord& ra = hosts_[a];
    const HostRecord& rb = hosts_[b];
    if (ra.domain != kNoDomain && ra.domain == rb.domain) {
      // Same stub domain: the local table is exact, since leaving and
      // re-entering the domain would cross the attachment edge twice.
      const DomainTable& table = domains_[ra.domain];
      return table.dist[static_cast<std::size_t>(ra.local) * table.size +
                        rb.local];
    }
    return ra.up_ms +
           backbone_dist_[static_cast<std::size_t>(ra.anchor) * backbone_n_ +
                          rb.anchor] +
           rb.up_ms;
  }

  static constexpr std::uint32_t kNoDomain = 0xffffffffu;

  const Graph& physical_;
  LatencyOracleOptions options_;
  bool hierarchical_ = false;

  // Fallback state. `csr_` is the traversal snapshot for row Dijkstras;
  // shards stripe the lock so concurrent queries rarely contend.
  CsrGraph csr_;
  std::size_t per_shard_cap_ = 0;  // 0 = unbounded
  mutable std::vector<Shard> shards_;

  // Hierarchical tables, all O(V) for bounded stub-domain size. One
  // packed record per host, so a query touches one line per endpoint.
  struct HostRecord {
    double up_ms = 0.0;  // cost from the host up to its anchor (0 transit)
    std::uint32_t domain = kNoDomain;  // owning stub domain
    std::uint32_t local = 0;   // index inside the domain table
    std::uint32_t anchor = 0;  // backbone index of the anchor transit node
  };
  std::vector<HostRecord> hosts_;
  struct DomainTable {
    NodeId first = kInvalidNode;
    std::uint32_t size = 0;
    std::vector<double> dist;  // size x size, row-major
  };
  std::vector<DomainTable> domains_;
  std::size_t backbone_n_ = 0;
  std::vector<double> backbone_dist_;  // backbone_n_ x backbone_n_
};

}  // namespace propsim
