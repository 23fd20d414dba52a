// simcore_scaling — event-core throughput bench (not a paper figure).
//
// Drives the scheduler with independent self-rescheduling event chains:
// 500 chains x 10,000 events at full scale. 5% of hops have zero delay,
// which exercises the equal-time FIFO tie-break.
//
// Every chain folds (chain id, sequence number, sim clock bits) into its
// own FNV-1a checksum in execution order; the run checksum folds the
// per-chain sums in chain-index order, so any change to the executed
// event order moves it. Wall-clock, resident memory, event throughput
// and the checksum go to stdout and to BENCH_simcore.json (stable
// schema `propsim.bench.simcore`, version 4: one serial row). The bench
// exits non-zero unless every chain ran to completion.
//
// `--quick` shrinks to 120 chains x 2,500 events so the bench fits in
// CI time.
#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "sim/scheduler.h"

namespace propsim::bench {
namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process so far, in MiB (ru_maxrss is KiB on
/// Linux).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Self-rescheduling event chains; each owns its Rng and its checksum.
class SimWorkload {
 public:
  SimWorkload(Scheduler& sim, std::size_t chains, std::uint64_t seed,
              std::uint64_t events_per_chain)
      : sim_(sim) {
    chains_.reserve(chains);
    for (std::size_t d = 0; d < chains; ++d) {
      chains_.push_back(Chain{Rng(seed + 0xc2b2ae3d27d4eb4fULL * (d + 1)),
                              static_cast<std::uint32_t>(d),
                              events_per_chain});
    }
  }

  void start() {
    for (Chain& chain : chains_) schedule_next(chain);
  }

  /// Per-chain checksums folded in chain-index order.
  std::uint64_t checksum() const {
    std::uint64_t h = kFnvOffset;
    for (const Chain& chain : chains_) {
      for (int b = 0; b < 8; ++b) {
        h ^= (chain.checksum >> (8 * b)) & 0xFF;
        h *= kFnvPrime;
      }
    }
    return h;
  }

  std::uint64_t fired() const {
    std::uint64_t total = 0;
    for (const Chain& chain : chains_) total += chain.fired;
    return total;
  }

 private:
  static constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
  static constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

  struct Chain {
    Rng rng;
    std::uint32_t id;
    std::uint64_t remaining;
    std::uint64_t seq = 0;
    std::uint64_t fired = 0;
    std::uint64_t checksum = kFnvOffset;
  };

  void schedule_next(Chain& chain) {
    if (chain.remaining == 0) return;
    --chain.remaining;
    Chain* c = &chain;  // chains_ never reallocates after construction
    const double delay = chain.rng.bernoulli(0.05)
                             ? 0.0
                             : chain.rng.uniform_double(0.0005, 0.5);
    sim_.schedule_in(delay, [this, c] { fire(*c); });
  }

  void fire(Chain& chain) {
    ++chain.fired;
    mix(chain, chain.id);
    mix(chain, chain.seq++);
    mix(chain, std::bit_cast<std::uint64_t>(sim_.now()));
    schedule_next(chain);
  }

  void mix(Chain& chain, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      chain.checksum ^= (v >> (8 * b)) & 0xFF;
      chain.checksum *= kFnvPrime;
    }
  }

  Scheduler& sim_;
  std::vector<Chain> chains_;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int run(const BenchOptions& opts) {
  const std::size_t chains = opts.quick ? 120 : 500;
  const std::uint64_t events_per_chain = opts.quick ? 2500 : 10000;

  print_header("simcore_scaling: serial event-core throughput",
               "every event chain runs to completion; the checksum pins "
               "the executed event order");

  Scheduler sim;
  SimWorkload workload(sim, chains, opts.seed, events_per_chain);
  const double start = now_ms();
  workload.start();
  sim.run_all();
  const double wall_ms = now_ms() - start;
  const std::uint64_t events = workload.fired();
  const double throughput =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(events) / wall_ms : 0.0;
  const std::string checksum = hex64(workload.checksum());
  std::printf("  serial: %zu chains, %llu events in %.0f ms (%.0f "
              "events/s, checksum %s)\n",
              chains, static_cast<unsigned long long>(events), wall_ms,
              throughput, checksum.c_str());

  Json doc = Json::object();
  doc.set("schema", "propsim.bench.simcore");
  doc.set("version", 4);
  doc.set("quick", opts.quick);
  doc.set("seed", opts.seed);
  doc.set("hardware", hardware_info());
  doc.set("chains", static_cast<std::uint64_t>(chains));
  Json row = Json::object();
  row.set("mode", "serial")
      .set("events", events)
      .set("wall_ms", wall_ms)
      .set("throughput", throughput)
      .set("checksum", checksum);
  Json rows = Json::array();
  rows.push_back(std::move(row));
  doc.set("runs", std::move(rows));
  const bool pass = events == chains * events_per_chain;
  doc.set("pass", pass);
  doc.set("peak_rss_mb", peak_rss_mb());

  const std::string out = doc.dump(2);
  if (std::FILE* f = std::fopen("BENCH_simcore.json", "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_simcore.json (peak rss %.1f MiB)\n",
                peak_rss_mb());
  } else {
    std::fprintf(stderr, "could not write BENCH_simcore.json\n");
    return 1;
  }
  print_verdict(pass, pass ? "every event chain ran to completion"
                           : "event chains stopped early");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace propsim::bench

int main(int argc, char** argv) {
  const auto opts = propsim::bench::parse_options(argc, argv);
  return propsim::bench::run(opts);
}
