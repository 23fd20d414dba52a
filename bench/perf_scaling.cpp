// perf_scaling — oracle + measurement-engine scaling bench (not a
// paper figure).
//
// Part one measures the hierarchical transit-stub latency oracle
// against the Dijkstra-row fallback across physical network sizes n in
// {~1k, ~10k, ~50k}: construction wall-clock, point-query throughput,
// resident memory, and an end-to-end PROP-G Gnutella run at the 10k
// scale with both engines. Results go to stdout and to
// BENCH_oracle.json (stable schema `propsim.bench.oracle`, version 1).
//
// Part two measures the parallel measurement engine on the
// convergence-snapshot workload (capture an OverlaySnapshot, evaluate
// the batched lookup + direct metrics over a fixed query set, repeat
// per snapshot tick) at overlay sizes ~1k/10k/50k across 1/2/4/8
// worker threads, asserting the sampled series are bit-identical for
// every thread count. Results go to BENCH_measure.json (stable schema
// `propsim.bench.measure`, version 4; docs/PERF.md lists its fields).
// The >= 2.5x speedup-at-4-threads gate runs at the 10k scale and only
// when the process may run on >= 4 cores (a smaller host records the
// same fields and runs it informationally).
//
// `--quick` shrinks query counts and skips the 50k scale so the bench
// fits in CI time; `--part 1k|10k|50k` runs a single scale of both
// parts. Exit code is 0 only when the exercised gates hold.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "core/prop_engine.h"
#include "measure/measure_engine.h"
#include "metrics/convergence.h"
#include "metrics/metrics.h"
#include "sim/scheduler.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

/// Current resident set in MiB via /proc/self/statm (Linux); 0 if
/// unreadable. Peak RSS only grows, so this is what shows the oracle's
/// O(V) footprint per scale.
double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  const long page_kb = sysconf(_SC_PAGESIZE) / 1024;
  return static_cast<double>(resident * page_kb) / 1024.0;
}

struct Scale {
  std::string name;     // also the --part selector
  std::size_t transit_domains;
};

TransitStubConfig scaled_config(const Scale& scale) {
  // ts-large shape (4 transit nodes/domain, 3x40-node stubs per transit
  // node = 484 nodes per transit domain); only the backbone width grows.
  TransitStubConfig config = TransitStubConfig::ts_large();
  config.transit_domains = scale.transit_domains;
  return config;
}

/// Random (a, b) stub-host query pairs, a != b.
std::vector<std::pair<NodeId, NodeId>> random_pairs(
    const TransitStubTopology& topo, std::size_t count, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  const auto& hosts = topo.stub_nodes;
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId a = rng.pick(hosts);
    NodeId b = rng.pick(hosts);
    while (b == a) b = rng.pick(hosts);
    pairs.emplace_back(a, b);
  }
  return pairs;
}

struct Throughput {
  std::size_t queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double checksum = 0.0;  // defeats dead-code elimination; printed
};

Throughput measure_queries(const LatencyOracle& oracle,
                           std::span<const std::pair<NodeId, NodeId>> pairs) {
  Throughput t;
  t.queries = pairs.size();
  const double start = now_ms();
  double sum = 0.0;
  for (const auto& [a, b] : pairs) sum += oracle.latency(a, b);
  t.wall_ms = now_ms() - start;
  t.qps = t.wall_ms > 0.0 ? 1000.0 * static_cast<double>(t.queries) / t.wall_ms
                          : 0.0;
  t.checksum = sum;
  return t;
}

/// Max |hierarchical - Dijkstra| over full rows from `samples` random
/// sources. Must be exactly 0 on transit-stub graphs.
double equivalence_gap(const TransitStubTopology& topo,
                       const LatencyOracle& hier, const LatencyOracle& dijk,
                       std::size_t samples, Rng& rng) {
  double worst = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const NodeId src = rng.pick(topo.stub_nodes);
    const DistanceRow h = hier.distances_from(src);
    const DistanceRow d = dijk.distances_from(src);
    for (std::size_t v = 0; v < h.size(); ++v) {
      worst = std::max(worst, std::fabs(h[v] - d[v]));
    }
  }
  return worst;
}

struct EndToEnd {
  double wall_ms = 0.0;
  double improvement = 0.0;  // initial/final lookup latency
  std::uint64_t exchanges = 0;
};

/// One full PROP-G Gnutella experiment over a prebuilt topology using
/// the given oracle engine; identical seeds => identical overlay and
/// schedule for both engines, so wall-clock is the only difference.
EndToEnd run_prop_g(const TransitStubTopology& topo,
                    const LatencyOracle& oracle, std::size_t overlay_n,
                    double horizon_s, std::size_t query_count,
                    std::uint64_t seed) {
  const double start = now_ms();
  Rng rng(seed);
  const auto hosts = select_stub_hosts(topo, overlay_n, rng);
  GnutellaConfig gcfg;
  OverlayNetwork net = build_gnutella_overlay(gcfg, hosts, oracle, rng);

  Rng qrng(seed ^ 0x517cc1b727220a95ULL);
  const auto queries = uniform_queries(net.graph(), query_count, qrng);

  Scheduler sim;
  PropEngine engine(net, sim, PropParams{.mode = PropMode::kPropG}, seed + 7);
  MeasureEngine measure(1);
  ConvergenceSampler sampler(sim, "lookup_ms", 0.0, horizon_s, horizon_s / 8.0,
                             [&] {
                               return measure.average_lookup_latency(
                                   OverlaySnapshot::capture(net), queries);
                             });
  engine.start();
  sim.run_until(horizon_s);

  EndToEnd e;
  e.wall_ms = now_ms() - start;
  const TimeSeries series = sampler.take_series();
  e.improvement = series.first_value() / series.last_value();
  e.exchanges = engine.stats().exchanges;
  return e;
}

// ---------------------------------------------------------------------
// Part two: measurement-engine scaling.

struct MeasureScale {
  std::string name;             // shares the --part selector namespace
  std::size_t transit_domains;  // sized so overlay_n stub hosts exist
  std::size_t overlay_n;
};

struct SweepTiming {
  double wall_ms = 0.0;
  std::vector<double> lookup_series;  // one lookup_ms sample per tick
  std::vector<double> direct_series;
};

/// Times the convergence-snapshot workload at one thread count: a
/// batched ConvergenceSampler whose prepare hook
/// captures a fresh OverlaySnapshot each tick and whose two metrics
/// (flood lookup latency + direct latency over a fixed query set) run
/// on one MeasureEngine. Pool spawn, engine scratch growth, and series
/// storage are all excluded from the timed region by one untimed
/// warmup sweep — the timer covers the steady-state per-tick cost, not
/// first-touch allocation.
SweepTiming time_sweeps(std::size_t threads, const OverlayNetwork& net,
                        std::span<const QueryPair> queries,
                        std::size_t snapshots) {
  MeasureEngine engine(threads);
  Scheduler sim;
  OverlaySnapshot snap = OverlaySnapshot::capture(net);
  // Untimed warmup: sizes the per-thread flood scratch (bucket queue
  // included) and the engine's run/average buffers, so the timed region
  // below never pays a first-touch allocation.
  (void)engine.average_lookup_latency(snap, queries);
  (void)engine.average_direct_latency(net, queries);
  std::vector<ConvergenceSampler::NamedMetric> metrics;
  metrics.push_back({"lookup_ms", [&] {
                       return engine.average_lookup_latency(snap, queries);
                     }});
  metrics.push_back({"direct_ms", [&] {
                       return engine.average_direct_latency(net, queries);
                     }});
  const double interval_s = 60.0;
  const double end_s = interval_s * static_cast<double>(snapshots - 1);
  SweepTiming t;
  t.lookup_series.reserve(snapshots);
  t.direct_series.reserve(snapshots);
  const double start = now_ms();
  ConvergenceSampler sampler(
      sim, 0.0, end_s, interval_s,
      [&] { snap = OverlaySnapshot::capture(net); }, std::move(metrics));
  sim.run_until(end_s);
  t.wall_ms = now_ms() - start;
  for (const auto& p : sampler.series(0).points()) {
    t.lookup_series.push_back(p.value);
  }
  for (const auto& p : sampler.series(1).points()) {
    t.direct_series.push_back(p.value);
  }
  return t;
}

/// Runs the 1/2/4/8 thread matrix, checking that every parallel run
/// reproduces the serial series bit-for-bit. Returns the serial timing;
/// fills the JSON row list plus the 4-thread speedup.
SweepTiming run_thread_matrix(const OverlayNetwork& net,
                              std::span<const QueryPair> queries,
                              std::size_t snapshots, Json& trow_list,
                              double* out_speedup_4t, bool* out_identical) {
  const std::size_t thread_counts[] = {1, 2, 4, 8};
  SweepTiming serial;
  double serial_ms = 0.0;
  *out_speedup_4t = 0.0;
  *out_identical = true;
  for (const std::size_t threads : thread_counts) {
    const SweepTiming t = time_sweeps(threads, net, queries, snapshots);
    if (threads == 1) {
      serial = t;
      serial_ms = t.wall_ms;
    } else {
      *out_identical = *out_identical &&
                       t.lookup_series == serial.lookup_series &&
                       t.direct_series == serial.direct_series;
    }
    const double speedup = t.wall_ms > 0.0 ? serial_ms / t.wall_ms : 0.0;
    if (threads == 4) *out_speedup_4t = speedup;
    const double sweeps_per_s =
        t.wall_ms > 0.0 ? 1000.0 * static_cast<double>(snapshots) / t.wall_ms
                        : 0.0;
    std::printf("  threads %zu: %.0f ms (%.2f sweeps/s, %.2fx vs serial)\n",
                threads, t.wall_ms, sweeps_per_s, speedup);
    Json trow = Json::object();
    trow.set("threads", static_cast<std::uint64_t>(threads))
        .set("wall_ms", t.wall_ms)
        .set("sweeps_per_s", sweeps_per_s)
        .set("speedup_vs_serial", speedup);
    trow_list.push_back(std::move(trow));
  }
  return serial;
}

/// Cores this process may run on, as `nproc` counts them (CPU affinity
/// honoured); the machine's own count when the affinity is unreadable.
std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// Part two driver: runs the thread matrix per scale, asserts the
/// sampled series are bit-identical across thread counts, and writes
/// BENCH_measure.json (schema v4). The 4-thread speedup gate needs real
/// cores, so it is exercised only when usable_cores() >= 4. The
/// determinism check always counts toward `pass`.
bool run_measure(const BenchOptions& opts, bool* out_pass,
                 bool* out_gate_checked) {
  std::printf("\nmeasurement-engine scaling (convergence-snapshot "
              "workload)\n");

  std::vector<MeasureScale> scales{{"1k", 3, 1000}, {"10k", 21, 10000}};
  if (!opts.quick) scales.push_back({"50k", 105, 50000});
  if (!opts.part.empty()) {
    std::erase_if(scales,
                  [&](const MeasureScale& s) { return s.name != opts.part; });
  }

  const std::size_t cores = usable_cores();
  constexpr double kMinSpeedup4t = 2.5;

  bool pass = true;
  bool gate_checked = false;

  Json doc = Json::object();
  doc.set("schema", "propsim.bench.measure");
  doc.set("version", 4);
  doc.set("quick", opts.quick);
  doc.set("seed", opts.seed);
  doc.set("hardware", hardware_info());
  doc.set("min_speedup_4t", kMinSpeedup4t);
  Json rows = Json::array();

  for (const MeasureScale& scale : scales) {
    TransitStubConfig config = TransitStubConfig::ts_large();
    config.transit_domains = scale.transit_domains;
    std::printf("scale %s: overlay n=%zu over %zu physical nodes\n",
                scale.name.c_str(), scale.overlay_n, config.total_nodes());

    Rng rng(opts.seed + 101);
    const TransitStubTopology topo = make_transit_stub(config, rng);
    const LatencyOracle oracle(topo);
    const auto hosts = select_stub_hosts(topo, scale.overlay_n, rng);
    GnutellaConfig gcfg;
    OverlayNetwork net = build_gnutella_overlay(gcfg, hosts, oracle, rng);

    const std::size_t query_count =
        opts.quick ? (scale.overlay_n >= 10000 ? 1000 : 500)
                   : (scale.overlay_n >= 50000 ? 5000 : 10000);
    const std::size_t snapshots =
        opts.quick ? 2 : (scale.overlay_n >= 50000 ? 2 : 4);
    Rng qrng(opts.seed ^ 0xd1b54a32d192ed03ULL);
    const auto queries = uniform_queries(net.graph(), query_count, qrng);

    Json thread_rows = Json::array();
    double speedup_4t = 0.0;
    bool identical = true;
    const SweepTiming serial = run_thread_matrix(
        net, queries, snapshots, thread_rows, &speedup_4t, &identical);
    if (!identical) {
      std::printf("  DETERMINISM VIOLATION: parallel series differ from "
                  "serial\n");
    }
    pass = pass && identical;

    Json row = Json::object();
    row.set("scale", scale.name)
        .set("physical_nodes",
             static_cast<std::uint64_t>(config.total_nodes()))
        .set("overlay_n", static_cast<std::uint64_t>(scale.overlay_n))
        .set("queries", static_cast<std::uint64_t>(query_count))
        .set("snapshots", static_cast<std::uint64_t>(snapshots))
        .set("engine_serial_ms", serial.wall_ms)
        .set("threads", std::move(thread_rows))
        .set("identical", identical);

    // The field is written on every host so the schema does not depend
    // on the core count; `gate_checked` says whether it was enforced.
    if (scale.name == "10k") row.set("gate_speedup_4t", speedup_4t);
    if (scale.name == "10k" && cores >= 4) {
      gate_checked = true;
      if (speedup_4t < kMinSpeedup4t) {
        std::printf("  10k measure gate FAILED: %.2fx < %.2fx at 4 "
                    "threads\n",
                    speedup_4t, kMinSpeedup4t);
        pass = false;
      }
    }
    rows.push_back(std::move(row));
  }

  doc.set("scales", std::move(rows));
  doc.set("gate_checked", gate_checked);
  doc.set("pass", pass);

  const std::string out = doc.dump(2);
  if (std::FILE* f = std::fopen("BENCH_measure.json", "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_measure.json (cores %zu)\n", cores);
  } else {
    std::fprintf(stderr, "could not write BENCH_measure.json\n");
    return false;
  }
  *out_pass = pass;
  *out_gate_checked = gate_checked;
  return true;
}

int run(const BenchOptions& opts) {
  print_header(
      "perf_scaling — hierarchical oracle vs Dijkstra-row fallback",
      "hierarchical latency(a,b) is O(1) with O(V) resident state; >= 5x "
      "the fallback's query throughput at the 10k scale, bit-exact");

  std::vector<Scale> scales{{"1k", 2}, {"10k", 21}};
  if (!opts.quick) scales.push_back({"50k", 103});
  if (!opts.part.empty()) {
    std::erase_if(scales,
                  [&](const Scale& s) { return s.name != opts.part; });
    if (scales.empty()) {
      std::fprintf(stderr, "unknown --part '%s' (1k | 10k | 50k)\n",
                   opts.part.c_str());
      return 2;
    }
  }

  Json doc = Json::object();
  doc.set("schema", "propsim.bench.oracle");
  doc.set("version", 1);
  doc.set("quick", opts.quick);
  doc.set("seed", opts.seed);
  doc.set("hardware", hardware_info());
  Json rows = Json::array();

  // Generous ceilings for the CI perf smoke gate, checked at the 10k
  // scale only (small enough to always run, big enough to be honest).
  constexpr double kBuildCeilingMs = 60'000.0;
  constexpr double kMinSpeedup = 5.0;
  constexpr double kMinHierQps = 1e6;
  constexpr double kRssCeilingMb = 4096.0;
  bool gate_checked = false;
  bool pass = true;

  for (const Scale& scale : scales) {
    const TransitStubConfig config = scaled_config(scale);
    std::printf("scale %s: %zu physical nodes (%zu transit domains)\n",
                scale.name.c_str(), config.total_nodes(),
                config.transit_domains);

    Rng rng(opts.seed);
    const TransitStubTopology topo = make_transit_stub(config, rng);

    const double build_start = now_ms();
    const LatencyOracle hier(topo);
    const double build_ms = now_ms() - build_start;
    const double rss_after_build = current_rss_mb();
    std::printf("  hierarchical build: %.1f ms, resident %.1f MiB\n",
                build_ms, rss_after_build);

    const LatencyOracle dijk(topo.graph);  // fallback engine, default LRU

    // Point-query throughput. The fallback gets fewer queries (each cold
    // source costs a full Dijkstra); qps normalizes the comparison.
    Rng qrng(opts.seed ^ 0x9e3779b97f4a7c15ULL);
    const std::size_t hier_q = opts.quick ? 500'000 : 5'000'000;
    const std::size_t dijk_q = std::max<std::size_t>(
        500, (opts.quick ? 5'000'000 : 50'000'000) / config.total_nodes());
    const auto hier_pairs = random_pairs(topo, hier_q, qrng);
    const auto dijk_pairs = random_pairs(topo, dijk_q, qrng);
    const Throughput ht = measure_queries(hier, hier_pairs);
    const Throughput dt = measure_queries(dijk, dijk_pairs);
    const double speedup = dt.qps > 0.0 ? ht.qps / dt.qps : 0.0;
    std::printf("  queries/sec: hierarchical %.3g (%zu queries, checksum "
                "%.6g), dijkstra %.3g (%zu queries) -> %.0fx\n",
                ht.qps, ht.queries, ht.checksum, dt.qps, dt.queries, speedup);

    // Exactness spot-check: full rows from random sources must match the
    // full-graph Dijkstra bit-for-bit.
    Rng erng(opts.seed + 13);
    const double gap = equivalence_gap(topo, hier, dijk, 3, erng);
    std::printf("  equivalence: max |hier - dijkstra| = %g over 3 rows\n",
                gap);

    Json row = Json::object();
    row.set("scale", scale.name)
        .set("physical_nodes", static_cast<std::uint64_t>(config.total_nodes()))
        .set("transit_domains",
             static_cast<std::uint64_t>(config.transit_domains))
        .set("hierarchical_build_ms", build_ms)
        .set("rss_after_build_mb", rss_after_build)
        .set("hierarchical_qps", ht.qps)
        .set("hierarchical_queries", static_cast<std::uint64_t>(ht.queries))
        .set("dijkstra_qps", dt.qps)
        .set("dijkstra_queries", static_cast<std::uint64_t>(dt.queries))
        .set("speedup", speedup)
        .set("equivalence_max_abs_diff", gap);

    // End-to-end PROP-G Gnutella at the gate scale, both engines.
    if (scale.name == "10k") {
      const std::size_t overlay_n = opts.quick ? 300 : 1000;
      const double horizon_s = opts.quick ? 900.0 : 3600.0;
      const std::size_t query_count = opts.quick ? 2500 : 10000;
      const EndToEnd he =
          run_prop_g(topo, hier, overlay_n, horizon_s, query_count, opts.seed);
      const EndToEnd de =
          run_prop_g(topo, dijk, overlay_n, horizon_s, query_count, opts.seed);
      std::printf("  end-to-end PROP-G (n=%zu peers, %.0f s): hierarchical "
                  "%.0f ms wall, dijkstra %.0f ms wall (improvement %.2fx / "
                  "%.2fx, %llu / %llu exchanges)\n",
                  overlay_n, horizon_s, he.wall_ms, de.wall_ms,
                  he.improvement, de.improvement,
                  static_cast<unsigned long long>(he.exchanges),
                  static_cast<unsigned long long>(de.exchanges));
      Json e2e = Json::object();
      e2e.set("overlay_nodes", static_cast<std::uint64_t>(overlay_n))
          .set("horizon_s", horizon_s)
          .set("hierarchical_wall_ms", he.wall_ms)
          .set("dijkstra_wall_ms", de.wall_ms)
          .set("hierarchical_improvement", he.improvement)
          .set("dijkstra_improvement", de.improvement);
      row.set("end_to_end_prop_g", std::move(e2e));

      gate_checked = true;
      bool gate = true;
      gate = gate && build_ms <= kBuildCeilingMs;
      gate = gate && ht.qps >= kMinHierQps;
      gate = gate && speedup >= kMinSpeedup;
      gate = gate && gap == 0.0;
      gate = gate && peak_rss_mb() <= kRssCeilingMb;
      pass = pass && gate;
      if (!gate) {
        std::printf("  10k gate FAILED (ceilings: build <= %.0f ms, "
                    "hier qps >= %.0g, speedup >= %.0fx, gap == 0, "
                    "peak rss <= %.0f MiB)\n",
                    kBuildCeilingMs, kMinHierQps, kMinSpeedup, kRssCeilingMb);
      }
    } else {
      pass = pass && gap == 0.0;
    }
    rows.push_back(std::move(row));
  }

  const double peak_mb = peak_rss_mb();
  doc.set("scales", std::move(rows));
  doc.set("peak_rss_mb", peak_mb);
  Json ceilings = Json::object();
  ceilings.set("build_ms", kBuildCeilingMs)
      .set("min_hierarchical_qps", kMinHierQps)
      .set("min_speedup", kMinSpeedup)
      .set("max_peak_rss_mb", kRssCeilingMb);
  doc.set("ceilings_10k", std::move(ceilings));
  doc.set("gate_checked", gate_checked);
  doc.set("pass", pass);

  const std::string out = doc.dump(2);
  if (std::FILE* f = std::fopen("BENCH_oracle.json", "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote BENCH_oracle.json (peak rss %.1f MiB)\n", peak_mb);
  } else {
    std::fprintf(stderr, "could not write BENCH_oracle.json\n");
    return 2;
  }

  bool measure_pass = true;
  bool measure_gate_checked = false;
  if (!run_measure(opts, &measure_pass, &measure_gate_checked)) return 2;
  pass = pass && measure_pass;

  const bool any_gate = gate_checked || measure_gate_checked;
  print_verdict(pass,
                pass ? (any_gate ? "exercised 10k gates hold; parallel "
                                   "measurement bit-identical"
                                 : "informational run (10k gates not "
                                   "exercised); parallel measurement "
                                   "bit-identical")
                     : "a 10k gate or the determinism check failed");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  return propsim::bench::run(propsim::bench::parse_options(argc, argv));
}
