// Allocation guards for the hot paths: once an engine has warmed up, a
// PROP attempt that commits nothing must not touch the heap (the walk,
// the plan and the greedy scores all live in buffers the engine
// reuses), and neither may a live lookup flooding the overlay in place
// (its scratch keeps its capacity across floods) or a metric sweep (its
// target sets live in the worker scratch). A regression that
// reintroduces a per-attempt, per-lookup or per-source vector fails
// here.
//
// Global operator new is replaced with a counting wrapper around malloc.
// PROPSIM_PARANOID builds skip: their cross-checks build reference
// vectors on every plan by design.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "fixtures.h"
#include "gnutella/gnutella.h"
#include "measure/measure_engine.h"
#include "sim/scheduler.h"
#include "topology/transit_stub.h"
#include "workload/lookups.h"

namespace {

std::atomic<std::uint64_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so GCC does not inline the free into a caller that it
// sees pairing it with operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace propsim {
namespace {

constexpr int kAttempts = 10000;

/// A hierarchical transit-stub world with 192 stub hosts; the oracle
/// answers from packed tables, so no latency query allocates.
struct World {
  TransitStubTopology topo;
  LatencyOracle oracle;
  std::vector<NodeId> hosts;

  World(std::size_t host_count, Rng& rng)
      : topo(make_transit_stub(config(), rng)), oracle(topo) {
    for (const std::size_t i :
         rng.sample_indices(topo.stub_nodes.size(), host_count)) {
      hosts.push_back(topo.stub_nodes[i]);
    }
  }

  static TransitStubConfig config() {
    TransitStubConfig c = testing::tiny_transit_stub_config();
    c.nodes_per_stub = 24;
    return c;
  }
};

/// Calls engine.attempt round-robin over the active slots and fails for
/// every attempt that returned false yet allocated. Committing attempts
/// may allocate (neighbour queues and adjacency rows grow) and are only
/// counted.
void expect_failed_attempts_allocate_nothing(PropEngine& engine,
                                             const OverlayNetwork& net) {
  const std::vector<SlotId> slots = net.graph().active_slots();
  int failed = 0;
  int allocating = 0;
  for (int i = 0; i < kAttempts; ++i) {
    const SlotId u = slots[static_cast<std::size_t>(i) % slots.size()];
    const std::uint64_t before = allocations.load(std::memory_order_relaxed);
    const bool committed = engine.attempt(u);
    const std::uint64_t used =
        allocations.load(std::memory_order_relaxed) - before;
    if (committed) continue;
    ++failed;
    if (used != 0 && ++allocating <= 5) {
      ADD_FAILURE() << "attempt " << i << " (slot " << u
                    << ") returned false after " << used << " allocations";
    }
  }
  EXPECT_EQ(allocating, 0) << "of " << failed << " failed attempts";
  EXPECT_GT(failed, kAttempts / 2);
}

bool paranoid_build() {
#ifdef PROPSIM_PARANOID
  return true;
#else
  return false;
#endif
}

/// Warms a greedy PROP-O Gnutella engine at exchange size `m` (0: the
/// minimum degree), then checks that its failed attempts allocate
/// nothing.
void expect_prop_o_greedy_attempts_allocate_nothing(std::size_t m) {
  Rng rng(7101);
  const World world(160, rng);
  ASSERT_TRUE(world.oracle.hierarchical());
  GnutellaConfig cfg;
  cfg.attach_links = 4;
  OverlayNetwork net =
      build_gnutella_overlay(cfg, world.hosts, world.oracle, rng);

  PropParams params;
  params.mode = PropMode::kPropO;
  params.selection = SelectionPolicy::kGreedy;
  params.m = m;
  params.nhops = 3;
  params.init_timer_s = 10.0;
  Scheduler sim;
  PropEngine engine(net, sim, params, 7102);
  engine.start();
  sim.run_until(600.0);  // every slot probes; the buffers reach full size
  ASSERT_GT(engine.stats().exchanges, 0u);

  expect_failed_attempts_allocate_nothing(engine, net);
}

TEST(AllocFree, PropOGreedyGnutellaAttemptsAllocateNothing) {
  if (paranoid_build()) GTEST_SKIP() << "paranoid cross-checks allocate";
  expect_prop_o_greedy_attempts_allocate_nothing(0);  // m = min degree
}

// Above most degrees, so the kept-candidate buffers grow to the largest
// min(deg u, deg v) probed rather than to m.
TEST(AllocFree, PropOGreedyLargeMAttemptsAllocateNothing) {
  if (paranoid_build()) GTEST_SKIP() << "paranoid cross-checks allocate";
  expect_prop_o_greedy_attempts_allocate_nothing(64);
}

TEST(AllocFree, PropGChordAttemptsAllocateNothing) {
  if (paranoid_build()) GTEST_SKIP() << "paranoid cross-checks allocate";
  Rng rng(7201);
  const World world(160, rng);
  ASSERT_TRUE(world.oracle.hierarchical());
  const ChordRing ring =
      ChordRing::build_random(world.hosts.size(), ChordConfig{}, rng);
  OverlayNetwork net = make_chord_overlay(ring, world.hosts, world.oracle);

  PropParams params;
  params.mode = PropMode::kPropG;
  params.init_timer_s = 10.0;
  Scheduler sim;
  PropEngine engine(net, sim, params, 7202);
  engine.start();
  sim.run_until(600.0);
  ASSERT_GT(engine.stats().exchanges, 0u);

  expect_failed_attempts_allocate_nothing(engine, net);
}

// Live lookups as run_experiment resolves them: a targeted flood over the
// live overlay's stored weights, with and without a link filter. The
// first pass grows the scratch; the second must allocate nothing.
TEST(AllocFree, WarmedLiveLookupsAllocateNothing) {
  Rng rng(7301);
  const World world(160, rng);
  GnutellaConfig cfg;
  cfg.attach_links = 4;
  const OverlayNetwork net =
      build_gnutella_overlay(cfg, world.hosts, world.oracle, rng);
  const OverlayNetwork::LinkFilter odd_cut = [](SlotId a, SlotId b) {
    return (a + b) % 5 != 0;
  };
  std::vector<std::pair<SlotId, SlotId>> pairs;
  for (int i = 0; i < 400; ++i) {
    pairs.emplace_back(static_cast<SlotId>(rng.uniform(net.size())),
                       static_cast<SlotId>(rng.uniform(net.size())));
  }
  const OverlayNetwork::LinkFilter* const filters[] = {nullptr, &odd_cut};
  MeasureScratch scratch;
  double checksum = 0.0;
  for (const int pass : {0, 1}) {
    const std::uint64_t before = allocations.load(std::memory_order_relaxed);
    for (const OverlayNetwork::LinkFilter* filter : filters) {
      for (const auto& [src, dst] : pairs) {
        flood_overlay(net, filter, src, nullptr, scratch, {&dst, 1});
        checksum += scratch.distance(dst);
      }
    }
    const std::uint64_t used =
        allocations.load(std::memory_order_relaxed) - before;
    if (pass == 1) {
      EXPECT_EQ(used, 0u) << "allocations in a warmed pass";
    }
  }
  EXPECT_GT(checksum, 0.0);
}

// Metric sweeps as the sampler runs them: one engine reused across
// ticks, with and without processing delays, serial and with a worker
// group. The first pass grows the engine's buffers and every thread's
// scratch, and spawns the workers; the second must allocate nothing.
TEST(AllocFree, WarmedSweepsAllocateNothing) {
  if (paranoid_build()) GTEST_SKIP() << "paranoid cross-checks allocate";
  Rng rng(7401);
  const World world(160, rng);
  GnutellaConfig cfg;
  cfg.attach_links = 4;
  const OverlayNetwork net =
      build_gnutella_overlay(cfg, world.hosts, world.oracle, rng);
  const OverlaySnapshot snap = OverlaySnapshot::capture(net);
  const auto queries = uniform_queries(net.graph(), 2000, rng);
  std::vector<double> delays(snap.slot_count());
  for (double& d : delays) d = rng.uniform_double(0.0, 3.0);
  const std::vector<double>* const procs[] = {nullptr, &delays};
  for (const std::size_t threads : {1, 4}) {
    MeasureEngine engine(threads);
    double checksum = 0.0;
    for (const int pass : {0, 1}) {
      const std::uint64_t before =
          allocations.load(std::memory_order_relaxed);
      for (const std::vector<double>* proc : procs) {
        checksum += engine.average_lookup_latency(snap, queries, proc);
      }
      const std::uint64_t used =
          allocations.load(std::memory_order_relaxed) - before;
      if (pass == 1) {
        EXPECT_EQ(used, 0u)
            << "allocations in a warmed pass, " << threads << " threads";
      }
    }
    EXPECT_GT(checksum, 0.0);
  }
}

}  // namespace
}  // namespace propsim
