// Deterministic, seed-driven fault injection between the overlay and the
// protocol engines.
//
// The paper evaluates PROP under node dynamics but assumes a perfectly
// reliable network; deployed Gnutella-scale systems see heavy message
// loss and abrupt mid-negotiation departures (Ripeanu et al., "Mapping
// the Gnutella Network"). A FaultInjector models three fault classes on
// the shared discrete-event clock:
//
//   (a) per-message Bernoulli loss plus multiplicative latency jitter on
//       probes, walk hops and negotiation round-trips;
//   (b) node crashes at arbitrary points inside an in-flight exchange
//       negotiation (executed through a caller-supplied FailureExecutor,
//       normally the ChurnProcess so survivor repair runs);
//   (c) scheduled stub-domain partitions: every link crossing the
//       domain's single gateway drops for a configured window.
//
// Determinism contract: the injector owns a private Rng stream, so two
// runs with the same seed inject the identical fault schedule, and a run
// with no injector attached is byte-for-byte the fault-free simulation
// (engines only consult the injector through a nullable pointer).
// Probability-zero fault classes never draw from the stream, keeping
// sub-configurations (e.g. loss only) independent of unrelated knobs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "faults/failure_executor.h"
#include "obs/event_bus.h"
#include "overlay/logical_graph.h"
#include "sim/scheduler.h"
#include "topology/graph.h"

namespace propsim {

/// One scheduled stub-domain partition: for t in [start_s, end_s) every
/// message with exactly one endpoint inside the domain is dropped (the
/// domain hangs off the backbone through a single gateway edge, so
/// cutting it isolates the whole domain — see topology/transit_stub.h).
struct PartitionWindow {
  std::uint32_t stub_domain = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Sentinel for PartitionWindow::stub_domain: resolve to the stub domain
/// hosting the most overlay nodes at run assembly (config value "auto").
inline constexpr std::uint32_t kPartitionDomainAuto =
    static_cast<std::uint32_t>(-1);

/// One correlated-failure storm: every overlay host living in the stub
/// domain crashes at an evenly spaced instant inside
/// [start_s, start_s + window_s), routed through the FailureExecutor so
/// churn repair runs for each victim. Geography-correlated failures
/// (Asaduzzaman & Bochmann, PAPERS.md) arrive by region, not i.i.d.
struct StormWindow {
  std::uint32_t stub_domain = 0;  // kPartitionDomainAuto until resolved
  double start_s = 0.0;
  double window_s = 0.0;
};

struct FaultParams {
  /// Per-message loss probability in [0, 1).
  double message_loss = 0.0;
  /// Multiplicative latency jitter amplitude in [0, 1): each delayed
  /// negotiation is stretched by a uniform factor in [1, 1 + jitter].
  double latency_jitter = 0.0;
  /// Probability that a prepared negotiation crashes one endpoint before
  /// its commit fires.
  double crash_per_negotiation = 0.0;
  /// Prepare-leg retransmissions before the initiator gives up.
  std::size_t max_negotiation_retries = 2;
  std::vector<PartitionWindow> partitions;
  std::vector<StormWindow> storms;

  /// Mean burst length (messages) of the Gilbert–Elliott two-state loss
  /// chain. 0 keeps the classic per-message Bernoulli model; >= 1
  /// replaces it with bursts whose stationary loss rate still equals
  /// message_loss (which must then be > 0).
  std::size_t loss_burst_len = 0;

  /// True when any fault class can fire. Engines attach an injector only
  /// then, so an all-zero FaultParams is bit-identical to no faults.
  bool active() const {
    return message_loss > 0.0 || latency_jitter > 0.0 ||
           crash_per_negotiation > 0.0 || !partitions.empty() ||
           !storms.empty();
  }
};

class FaultInjector {
 public:
  struct Stats {
    std::uint64_t messages = 0;         // deliver() decisions taken
    std::uint64_t losses = 0;           // random Bernoulli drops
    std::uint64_t partition_drops = 0;  // drops across a cut gateway
    std::uint64_t crashes_scheduled = 0;
    std::uint64_t crashes_executed = 0;
    std::uint64_t storm_failures = 0;  // crashes executed by storms
    std::uint64_t burst_losses = 0;    // losses while the GE chain was bad
  };

  /// Keeps a reference to `sim`; it must outlive the injector.
  FaultInjector(Scheduler& sim, const FaultParams& params,
                std::uint64_t seed);

  const FaultParams& params() const { return params_; }
  const Stats& stats() const { return stats_; }

  /// Observability hook (not owned, may be null).
  void set_trace(obs::EventBus* bus) { trace_ = bus; }

  /// Host -> stub-domain map for partition checks; entries for backbone
  /// (transit) hosts are kNoDomain. Required before a partition window
  /// can drop anything.
  static constexpr std::uint32_t kNoDomain = static_cast<std::uint32_t>(-1);
  void set_host_domains(std::vector<std::uint32_t> host_domain) {
    host_domain_ = std::move(host_domain);
  }
  /// The map set above; empty until set_host_domains. Audit hook.
  const std::vector<std::uint32_t>& host_domains() const {
    return host_domain_;
  }

  /// Sorted, deduplicated stub domains whose partition window is open at
  /// the simulator's current time (pure lookup, no RNG). Audit hook.
  std::vector<std::uint32_t> live_partitions() const;

  /// Executes injected crashes (not owned, must outlive the injector);
  /// normally the ChurnProcess, so survivor repair runs. Nothing
  /// crash-related fires until one is installed.
  void set_failure_executor(FailureExecutor* executor) {
    failure_executor_ = executor;
  }

  /// Enumerates the overlay slots whose hosts live in a stub domain, at
  /// the moment a storm fires (PROP-G moves hosts between slots, so the
  /// victim set cannot be precomputed). The injector has no overlay
  /// access by design; run assembly installs this. Storms are inert
  /// without it.
  using StormEnumerator =
      std::function<std::vector<SlotId>(std::uint32_t stub_domain)>;
  void set_storm_enumerator(StormEnumerator enumerate) {
    storm_enumerator_ = std::move(enumerate);
  }

  /// Emits partition open/heal trace events at their window boundaries
  /// and arms storm windows: at each storm start the enumerator runs and
  /// every victim is scheduled to fail at an evenly spaced offset inside
  /// the window — no RNG draws, so storms never perturb the loss/crash
  /// streams. Partition *checks* are pure time lookups — for them this
  /// only exists so the trace stream marks the windows.
  void start();

  /// True when a—b crosses a cut gateway right now (pure, no RNG).
  bool partitioned(NodeId a, NodeId b) const;

  /// Number of partition-window edges (starts and ends) at or before the
  /// simulator's current time (pure, no RNG). partitioned() can change
  /// its answer only when this count moves, so snapshot caches key on it.
  std::uint64_t partition_epoch() const;

  /// One message send a -> b: false when the message is lost, either to
  /// an open partition window or to random loss. Partition drops are
  /// deterministic and checked first; random loss draws from the
  /// injector stream only when message_loss > 0 (exactly one draw per
  /// message in both the Bernoulli and the Gilbert–Elliott model).
  bool deliver(NodeId from, NodeId to);

  /// Stretches a negotiation delay by the jitter factor (identity, no
  /// RNG draw, when latency_jitter == 0).
  double jitter(double delay_s);

  /// Rolls the crash dice for a prepared negotiation between u and v;
  /// when it comes up, schedules one endpoint (picked uniformly) to
  /// crash through the executor at a uniform offset inside `window_s`.
  /// Returns the victim, or nullopt when no crash was injected.
  std::optional<SlotId> maybe_schedule_crash(SlotId u, SlotId v,
                                             double window_s);

 private:
  Scheduler& sim_;
  FaultParams params_;
  Rng rng_;
  obs::EventBus* trace_ = nullptr;
  std::vector<std::uint32_t> host_domain_;
  FailureExecutor* failure_executor_ = nullptr;
  StormEnumerator storm_enumerator_;
  bool burst_bad_ = false;  // Gilbert–Elliott chain state
  Stats stats_;
};

}  // namespace propsim
