// Micro-benchmarks for the hot kernels (google-benchmark).
//
// Not a paper figure — these guard the simulator's own performance:
// Dijkstra over the physical graph, Chord lookups, CAN routing, the
// event queue, the exchange planning/apply primitives, and the metric
// sweep's flood kernel.
#include <algorithm>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/exchange.h"
#include "measure/measure_engine.h"
#include "sim/scheduler.h"
#include "topology/shortest_path.h"
#include "workload/host_selection.h"
#include "workload/lookups.h"

namespace propsim::bench {
namespace {

const World& shared_world() {
  static Rng rng(1);
  static World world(TransitStubConfig::ts_large(), rng);
  return world;
}

/// Small physical network for exchange-planning kernels.
TransitStubConfig small_config() {
  TransitStubConfig c;
  c.transit_domains = 4;
  c.transit_nodes_per_domain = 2;
  c.stub_domains_per_transit = 2;
  c.nodes_per_stub = 24;
  return c;
}

void BM_DijkstraTransitStub(benchmark::State& state) {
  const World& world = shared_world();
  NodeId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(world.topo.graph, source));
    source = (source + 7919) % world.topo.graph.node_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              world.topo.graph.node_count()));
}
BENCHMARK(BM_DijkstraTransitStub);

void BM_ChordLookup(benchmark::State& state) {
  Rng rng(2);
  const auto ring = ChordRing::build_random(
      static_cast<std::size_t>(state.range(0)), ChordConfig{}, rng);
  Rng qrng(3);
  for (auto _ : state) {
    const auto src = static_cast<SlotId>(qrng.uniform(ring.size()));
    benchmark::DoNotOptimize(ring.lookup_path(src, qrng.next()));
  }
}
BENCHMARK(BM_ChordLookup)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CanRoute(benchmark::State& state) {
  Rng rng(4);
  const auto space =
      CanSpace::build(static_cast<std::size_t>(state.range(0)), rng);
  Rng qrng(5);
  for (auto _ : state) {
    const auto src = static_cast<SlotId>(qrng.uniform(space.size()));
    const CanPoint target{qrng.uniform(kCanSpan), qrng.uniform(kCanSpan)};
    benchmark::DoNotOptimize(space.route_path(src, target));
  }
}
BENCHMARK(BM_CanRoute)->Arg(256)->Arg(1024);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler sim;
    Rng rng(6);
    int sink = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule_at(rng.uniform_double(0.0, 1000.0), [&sink] { ++sink; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(10000);

/// Plans PROP-G swaps between random slot pairs and commits every 40th
/// plan, chord_day's commit rate (about 2.5% of attempts). Each commit
/// re-prices the stored weights on both slots' edges, as in a run.
void run_prop_g_plans(benchmark::State& state, OverlayNetwork& net) {
  Rng prng(8);
  const auto slots = net.graph().active_slots();
  std::size_t planned = 0;
  for (auto _ : state) {
    const SlotId u =
        slots[static_cast<std::size_t>(prng.uniform(slots.size()))];
    SlotId v;
    do {
      v = slots[static_cast<std::size_t>(prng.uniform(slots.size()))];
    } while (v == u);
    const double var = prop_g_var(net, u, v);
    benchmark::DoNotOptimize(var);
    if (++planned % 40 == 0) net.swap_hosts(u, v);
  }
}

void BM_PropGPlanAndVar(benchmark::State& state) {
  Rng rng(7);
  World world(small_config(), rng);
  OverlayNetwork net = build_unstructured(world, 256, rng);
  run_prop_g_plans(state, net);
}
BENCHMARK(BM_PropGPlanAndVar);

void BM_PropGPlanAndVarChord(benchmark::State& state) {
  Rng rng(11);
  World world(small_config(), rng);
  const auto hosts = select_stub_hosts(world.topo, 256, rng);
  const auto ring = ChordRing::build_random(hosts.size(), ChordConfig{}, rng);
  OverlayNetwork net = make_chord_overlay(ring, hosts, world.oracle);
  run_prop_g_plans(state, net);
}
BENCHMARK(BM_PropGPlanAndVarChord);

/// One random walk plus one greedy plan of m = state.range(0) per side.
/// m = 4 is the paper's δ(G); m = 1000 is above every degree, so each
/// plan keeps every candidate of the smaller side.
void BM_PropOPlan(benchmark::State& state) {
  Rng rng(9);
  World world(small_config(), rng);
  OverlayNetwork net = build_unstructured(world, 256, rng);
  Rng prng(10);
  const auto slots = net.graph().active_slots();
  const auto m = static_cast<std::size_t>(state.range(0));
  // One walk buffer, plan and scratch for every iteration, as PropEngine
  // reuses its own.
  std::vector<SlotId> walk;
  ExchangePlan plan;
  PlanScratch scratch;
  for (auto _ : state) {
    const SlotId u =
        slots[static_cast<std::size_t>(prng.uniform(slots.size()))];
    const auto neigh = net.graph().neighbors(u);
    const SlotId first =
        neigh[static_cast<std::size_t>(prng.uniform(neigh.size()))];
    if (!net.random_walk(u, first, 2, prng, walk)) continue;
    benchmark::DoNotOptimize(plan_prop_o(plan, scratch, net, u, walk.back(),
                                         walk, m, SelectionPolicy::kGreedy,
                                         prng));
  }
}
BENCHMARK(BM_PropOPlan)->Arg(4)->Arg(1000);

/// A fig5-sized metric sweep: 10k uniform queries over a 1,000-slot
/// Gnutella snapshot on the ts-large world.
struct FloodSweepInput {
  OverlaySnapshot snap;
  std::vector<QueryPair> queries;
  std::vector<QueryPair> by_source;  // the queries, stably sorted by src
};

const FloodSweepInput& flood_sweep_input() {
  static const FloodSweepInput input = [] {
    Rng rng(12);
    World world(TransitStubConfig::ts_large(), rng);
    const OverlayNetwork net = build_unstructured(world, 1000, rng);
    FloodSweepInput in{OverlaySnapshot::capture(net),
                       uniform_queries(net.graph(), 10000, rng), {}};
    in.by_source = in.queries;
    std::stable_sort(in.by_source.begin(), in.by_source.end(),
                     [](const QueryPair& a, const QueryPair& b) {
                       return a.src < b.src;
                     });
    return in;
  }();
  return input;
}

/// The sweep as the sampler runs it: one flood per distinct source,
/// each stopping once its last destination is final.
void BM_FloodSweep(benchmark::State& state) {
  const FloodSweepInput& in = flood_sweep_input();
  MeasureEngine engine(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.average_lookup_latency(in.snap, in.queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.queries.size()));
}
BENCHMARK(BM_FloodSweep)->Unit(benchmark::kMillisecond);

/// The same queries with one full flood per distinct source: the
/// kernel's cost without the early stop.
void BM_FloodSweepFull(benchmark::State& state) {
  const FloodSweepInput& in = flood_sweep_input();
  MeasureScratch scratch;
  for (auto _ : state) {
    double sum = 0.0;
    SlotId flooded = kInvalidSlot;
    for (const QueryPair& q : in.by_source) {
      if (q.src != flooded) {
        flood_snapshot(in.snap, q.src, nullptr, scratch);
        flooded = q.src;
      }
      sum += scratch.distance(q.dst);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.queries.size()));
}
BENCHMARK(BM_FloodSweepFull)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace propsim::bench

// Custom main instead of benchmark_main: the bench-suite convention of
// passing --quick/--part/--seed to every binary must not trip
// google-benchmark's unknown-flag check, so those are stripped first.
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") continue;
    if ((arg == "--part" || arg == "--seed") && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
