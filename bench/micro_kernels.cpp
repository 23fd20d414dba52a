// Micro-benchmarks for the hot kernels (google-benchmark).
//
// Not a paper figure — these guard the simulator's own performance:
// Dijkstra over the physical graph, Chord lookups, CAN routing, the
// event queue, and the exchange planning/apply primitives.
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/exchange.h"
#include "sim/scheduler.h"
#include "topology/shortest_path.h"
#include "workload/host_selection.h"

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

void BM_PropGPlanAndVar(benchmark::State& state) {
  Rng rng(7);
  World world(small_config(), rng);
  OverlayNetwork net = build_unstructured(world, 256, rng);
  Rng prng(8);
  const auto slots = net.graph().active_slots();
  for (auto _ : state) {
    const SlotId u =
        slots[static_cast<std::size_t>(prng.uniform(slots.size()))];
    SlotId v;
    do {
      v = slots[static_cast<std::size_t>(prng.uniform(slots.size()))];
    } while (v == u);
    benchmark::DoNotOptimize(plan_prop_g(net, u, v));
  }
}

BENCHMARK(BM_PropGPlanAndVar);

void BM_PropOPlan(benchmark::State& state) {
  Rng rng(9);
  World world(small_config(), rng);
  OverlayNetwork net = build_unstructured(world, 256, rng);
  Rng prng(10);
  const auto slots = net.graph().active_slots();
  for (auto _ : state) {
    const SlotId u =
        slots[static_cast<std::size_t>(prng.uniform(slots.size()))];
    const auto neigh = net.graph().neighbors(u);
    const SlotId first =
        neigh[static_cast<std::size_t>(prng.uniform(neigh.size()))];
    const auto walk = net.random_walk(u, first, 2, prng);
    if (!walk) continue;
    benchmark::DoNotOptimize(plan_prop_o(net, u, walk->back(), *walk, 4,
                                         SelectionPolicy::kGreedy, prng));
  }
}
BENCHMARK(BM_PropOPlan);

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
