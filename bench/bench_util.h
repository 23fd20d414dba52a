// Shared scaffolding for the figure-reproduction benches.
//
// Every bench binary prints (a) a header describing the experiment, (b)
// the same series/rows the paper's figure or table reports, as CSV, and
// (c) a one-line verdict comparing the measured shape with the paper's
// claim. `--quick` (or PROPSIM_QUICK=1) shrinks the scale so the whole
// bench directory runs in CI time; default scale matches DESIGN.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "core/params.h"
#include "gnutella/gnutella.h"
#include "metrics/metrics.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"
#include "topology/transit_stub.h"

namespace propsim::bench {

struct BenchOptions {
  bool quick = false;
  std::string part;  // "a" / "b" / "c"; empty = all parts
  std::uint64_t seed = 20070901;  // ICPP 2007 vintage

  /// Scale helpers: quick mode shrinks populations and horizons ~4x.
  std::size_t scale_n(std::size_t full) const {
    return quick ? std::max<std::size_t>(full / 4, 32) : full;
  }
  double scale_t(double full) const { return quick ? full / 4.0 : full; }
  std::size_t scale_q(std::size_t full) const {
    return quick ? full / 4 : full;
  }
};

/// Parses --quick, --part X, --seed N; exits on unknown flags.
BenchOptions parse_options(int argc, char** argv);

/// Prints the standard experiment header.
void print_header(const std::string& experiment, const std::string& claim);

/// Prints a named CSV block (plot-ready) bracketed by markers.
void print_csv_block(const std::string& name, const std::string& csv);

/// Prints the final verdict line.
void print_verdict(bool holds, const std::string& detail);

/// Host description stanza every BENCH_*.json embeds under "hardware":
/// {"cores": N, "model": "..."}. CI arms the 4-thread measure gate off
/// `cores`, and the compare tool treats it as informational (never a
/// regression) while
/// `--require-metric hardware.cores` proves the stanza survives schema
/// churn. `model` is a string, invisible to the numeric flattener.
Json hardware_info();

/// A prepared world: physical topology + oracle. Heavy, build once per
/// scenario. The oracle uses the exact hierarchical transit-stub engine,
/// so pairwise latencies are O(1) with O(V) resident state.
struct World {
  TransitStubTopology topo;
  LatencyOracle oracle;

  World(const TransitStubConfig& config, Rng& rng)
      : topo(make_transit_stub(config, rng)), oracle(topo) {}
};

/// The default PROP parameter block used across benches (paper values).
PropParams paper_prop_params(PropMode mode);

/// Builds the paper's default unstructured overlay over n stub hosts.
OverlayNetwork build_unstructured(World& world, std::size_t n, Rng& rng);

/// Reduction factor A->B as "x.xx x" text.
std::string improvement_factor(double before, double after);

}  // namespace propsim::bench
