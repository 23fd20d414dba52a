// Shared small fixtures for propsim tests: a miniature transit-stub
// physical network and overlay builders sized so suites stay fast, and
// the one way a test audits a structural invariant (run_rule). Result
// dumps are compared across runs through without_wall_ms.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/invariant_checker.h"
#include "common/rng.h"
#include "gnutella/gnutella.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"
#include "topology/transit_stub.h"

namespace propsim::testing {

/// Runs one named lint rule over `ctx`, e.g.
/// run_rule("placement-bijection", {.placement = &net.placement()}).
inline LintReport run_rule(const std::string& name, const LintContext& ctx) {
  return run_lint(ctx, {name});
}

/// Drops the wall-clock lines (`"wall_ms": ...`) from a dumped result:
/// they measure host time, the one legitimately nondeterministic field.
inline std::string without_wall_ms(const std::string& json) {
  std::string out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    const std::size_t eol = json.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? json.size() : eol + 1;
    const std::string_view line(json.data() + pos, end - pos);
    if (line.find("\"wall_ms\"") == std::string_view::npos) {
      out.append(line);
    }
    pos = end;
  }
  return out;
}

/// 2 transit domains x 2 transit nodes x 2 stub domains x 12 stub nodes
/// = 4 + 96 = 100 physical nodes.
inline TransitStubConfig tiny_transit_stub_config() {
  TransitStubConfig c;
  c.transit_domains = 2;
  c.transit_nodes_per_domain = 2;
  c.stub_domains_per_transit = 2;
  c.nodes_per_stub = 12;
  c.stub_edge_probability = 0.15;
  c.extra_interdomain_edges = 1;
  return c;
}

/// The engine behind a fixture's oracle: Dijkstra rows over the graph,
/// or the hierarchical transit-stub tables experiments build.
enum class OracleEngine { kRows, kHierarchical };

/// Bundles a physical topology, its oracle and an unstructured overlay
/// over `overlay_n` stub hosts; everything seeded for reproducibility.
struct UnstructuredFixture {
  TransitStubTopology topo;
  LatencyOracle oracle;
  OverlayNetwork net;

  static UnstructuredFixture make(std::size_t overlay_n, std::uint64_t seed,
                                  std::size_t attach_links = 3,
                                  OracleEngine engine = OracleEngine::kRows) {
    Rng rng(seed);
    TransitStubTopology topo = make_transit_stub(tiny_transit_stub_config(),
                                                 rng);
    return UnstructuredFixture(std::move(topo), overlay_n, rng, attach_links,
                               engine);
  }

 private:
  UnstructuredFixture(TransitStubTopology t, std::size_t overlay_n, Rng& rng,
                      std::size_t attach_links, OracleEngine engine)
      : topo(std::move(t)),
        oracle(make_oracle(topo, engine)),
        net(build_overlay(overlay_n, rng, attach_links)) {}

  static LatencyOracle make_oracle(const TransitStubTopology& topo,
                                   OracleEngine engine) {
    if (engine == OracleEngine::kHierarchical) return LatencyOracle(topo);
    return LatencyOracle(topo.graph);
  }

  OverlayNetwork build_overlay(std::size_t overlay_n, Rng& rng,
                               std::size_t attach_links) {
    const auto indices =
        rng.sample_indices(topo.stub_nodes.size(), overlay_n);
    std::vector<NodeId> hosts;
    hosts.reserve(overlay_n);
    for (const std::size_t i : indices) hosts.push_back(topo.stub_nodes[i]);
    GnutellaConfig cfg;
    cfg.attach_links = attach_links;
    return build_gnutella_overlay(cfg, hosts, oracle, rng);
  }
};

}  // namespace propsim::testing
