// Benchmark-owned assembly of run_experiment with a span around each layer.
//
// traced_run() makes the same public calls, in the same order and with
// the same seeds, as run_experiment (src/app/experiment.cpp) for the
// subset of specs the benchmark workloads use, and times each call:
//
//   topology.build_s        make_transit_stub
//   topology.oracle_build_s LatencyOracle constructor
//   overlay.build_s         gnutella / chord overlay builders
//   measure.snapshot_s      sampler prepare closure (SnapshotCache)
//   measure.kernel_s        sampler metric closure (MeasureEngine)
//   overlay.lookup_s        LookupTrafficProcess resolve closure
//   core.event_s            time between Scheduler audit hooks, minus the
//                           sampler and lookup spans nested in it
//   app.output_s            experiment_result_json + dump
//
// The caller compares the traced result JSON with the untraced
// run_experiment result byte for byte; a mismatch means this replica has
// drifted from run_experiment and its spans no longer describe it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "common/json.h"

namespace propsim::perfbench {

/// Empty when traced_run() reproduces run_experiment for `spec`;
/// otherwise names the first spec feature the replica does not assemble.
std::string traced_run_unsupported(const ExperimentSpec& spec);

/// Wall time of the world build run_experiment performs before its
/// engines exist: physical topology, latency oracle, host draw and
/// overlay, through the same public builders.
double time_world_build(const ExperimentSpec& spec);

struct LayerProfile {
  double wall_s = 0.0;  // whole traced assembly, through output
  double topology_build_s = 0.0;
  double oracle_build_s = 0.0;
  double overlay_build_s = 0.0;
  double snapshot_s = 0.0;
  double kernel_s = 0.0;
  double lookup_s = 0.0;
  double event_s = 0.0;
  double output_s = 0.0;
  std::vector<float> lookup_us;  // one per resolved lookup
  std::vector<float> event_us;   // self time of each executed event

  std::uint64_t snapshot_captures = 0;
  std::uint64_t snapshot_reuses = 0;
  std::uint64_t floods = 0;
  std::uint64_t attempts = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t losses = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t pending_peak = 0;
};

struct TracedOutcome {
  Json result;  // experiment_result_json of the replica's result
  LayerProfile layers;
};

/// Requires traced_run_unsupported(spec) to be empty.
TracedOutcome traced_run(const ExperimentSpec& spec);

}  // namespace propsim::perfbench
