// Poisson churn over an unstructured overlay.
//
// Joins draw a spare physical host, attach via the Gnutella rule and
// notify the PROP engine; leaves deactivate a random slot and return its
// host to the spare pool. The paper's dynamics claim — probing frequency
// spikes and re-quiesces — is driven by this process.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/prop_engine.h"
#include "faults/fault_plan.h"
#include "gnutella/gnutella.h"
#include "overlay/overlay_network.h"
#include "sim/scheduler.h"

namespace propsim {

struct ChurnParams {
  /// Mean joins (and, independently, leaves) per second.
  double join_rate_per_s = 0.1;
  double leave_rate_per_s = 0.1;
  /// Mean sudden crashes per second (no graceful handoff; survivors
  /// repair the overlay like real Gnutella peers re-dialing).
  double fail_rate_per_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
};

class ChurnProcess : public FailureExecutor {
 public:
  /// Leaves and failures are refused while the overlay has at most this
  /// many peers.
  static constexpr std::size_t kMinPopulation = 8;

  /// `engine` may be null (churn without PROP, for baselines). `spares`
  /// seeds the pool of joinable hosts; departed peers' hosts are reused.
  ChurnProcess(OverlayNetwork& net, Scheduler& sim, PropEngine* engine,
               const GnutellaConfig& overlay_config,
               const ChurnParams& params, std::vector<NodeId> spares,
               std::uint64_t seed);

  /// Schedules the first join, leave and failure arrivals (clamped to
  /// end_s like every later arrival).
  void start();

  /// Attaches a fault injector (not owned, may be null): survivor
  /// repair re-dials become real messages that can be lost, so repair
  /// slows down under loss and stalls across a partition.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

  std::uint64_t joins() const { return joins_; }
  std::uint64_t leaves() const { return leaves_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t repair_links() const { return repair_links_; }

  /// One forced join/leave/crash (tests).
  bool do_join();
  bool do_leave();
  /// Sudden failure: the victim vanishes with no handoff; its former
  /// neighbors re-dial replacement links (degree floor restored, and
  /// any partition reconnected), mirroring Gnutella's keepalive repair.
  bool do_fail();

 private:
  /// FailureExecutor: crashes a specific slot (fault-injection path):
  /// same survivor repair as do_fail, but the victim is chosen by the
  /// caller. Returns false when the slot is inactive or the population
  /// floor refuses. Private on purpose — callers go through the
  /// FailureExecutor interface (faults/failure_executor.h), never
  /// directly.
  bool fail_slot(SlotId victim) override;

  /// One Poisson arrival stream per kind: each arrival acts, then
  /// draws its successor (none past end_s).
  enum class Arrival : std::uint8_t { kJoin, kLeave, kFail };
  double rate_of(Arrival kind) const;
  void schedule_arrival(Arrival kind, double from_s);
  void add_repair_edge(SlotId a, SlotId b);

  OverlayNetwork& net_;
  Scheduler& sim_;
  PropEngine* engine_;
  FaultInjector* faults_ = nullptr;
  GnutellaConfig overlay_config_;
  ChurnParams params_;
  std::vector<NodeId> spares_;
  Rng rng_;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t repair_links_ = 0;
};

}  // namespace propsim
