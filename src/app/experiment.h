// Config-driven experiment runner — the engine behind tools/propsim_cli.
//
// An ExperimentSpec selects a physical topology, an overlay substrate, an
// optimization protocol, an optional heterogeneity/churn workload and a
// measurement schedule; run_experiment assembles the pieces and returns
// the paper-style metric series plus protocol counters.
//
// The config keys, with their types, defaults and valid ranges, are one
// table: src/app/spec_keys.cpp (README's key table is tested against it).
// from_config returns a SpecResult: structured per-key errors (including
// unknown keys, with did-you-mean suggestions) instead of aborting the
// process, so tools can report every problem at once.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "common/config.h"
#include "common/timeseries.h"
#include "core/params.h"
#include "faults/fault_plan.h"
#include "obs/event_bus.h"
#include "workload/churn.h"
#include "workload/heterogeneity.h"

namespace propsim {

struct SpecResult;

struct ExperimentSpec {
  enum class Topology { kTsLarge, kTsSmall, kWaxman };
  enum class Overlay { kGnutella, kChord, kPastry, kTapestry, kCan };
  enum class Protocol { kNone, kPropG, kPropO, kLtm };

  Topology topology = Topology::kTsLarge;
  Overlay overlay = Overlay::kGnutella;
  Protocol protocol = Protocol::kPropG;

  std::size_t nodes = 1000;
  std::uint64_t seed = 20070901;
  double horizon_s = 3600.0;
  double sample_interval_s = 240.0;
  std::size_t queries = 10000;

  /// PROP's parameters; LTM's detector period is prop.init_timer_s too.
  PropParams prop;

  enum class Heterogeneity { kNone, kBimodal, kBimodalByDegree };
  Heterogeneity heterogeneity = Heterogeneity::kNone;
  BimodalConfig bimodal;
  /// Destination bias toward fast nodes; negative = uniform workload.
  double fraction_fast_dest = -1.0;

  ChurnParams churn;  // all-zero rates = no churn

  /// Fault-injection plan (src/faults). An injector is constructed only
  /// when faults.active() — a config with fault_loss = 0 and no other
  /// fault knob runs the exact fault-free code path, bit-identically.
  FaultParams faults;

  /// Byzantine behavior plan (src/adversary). Like faults, a layer is
  /// constructed only when adversary.active(): all-zero fractions run
  /// the honest code path bit-identically.
  AdversaryParams adversary;

  /// Event-driven lookup arrivals per second (0 = snapshot metric only).
  double lookup_rate_per_s = 0.0;

  /// Latency-oracle engine selection. kAuto picks the exact hierarchical
  /// engine on transit-stub topologies and Dijkstra rows elsewhere.
  enum class OracleMode { kAuto, kHierarchical, kDijkstra };
  OracleMode oracle_mode = OracleMode::kAuto;
  /// LRU bound on resident Dijkstra rows (0 = unbounded).
  std::size_t oracle_cache_rows = 1024;

  /// Threads for metric-snapshot evaluation (the measurement engine):
  /// 0 or 1 = serial, kMeasureThreadsAuto (the default) = the cores this
  /// run owns, measure_threads_for (measure/measure_engine.h): all of
  /// them for a lone run_experiment, hardware threads / runs in flight
  /// for each run of a run_sweep, so nested parallelism divides the
  /// cores instead of multiplying threads. A pure execution knob: results are
  /// bit-identical for any value (and it is therefore not echoed into
  /// the result JSON).
  static constexpr std::size_t kMeasureThreadsAuto =
      static_cast<std::size_t>(-1);
  std::size_t measure_threads = kMeasureThreadsAuto;

  /// Flood-kernel selection for the metric sweeps. There is one kernel,
  /// the exact one, bit-identical to the live flood; kAuto resolves to
  /// kExact. The resolved mode is echoed into the result JSON. kFast is
  /// retired: from_config rejects `fast` with a SpecIssue, and the
  /// enumerator stays only so existing callers compile (running a spec
  /// that sets it aborts).
  enum class MeasureMode { kAuto, kExact, kFast };
  MeasureMode measure_mode = MeasureMode::kAuto;
  /// The mode a run actually uses (kAuto resolved; never returns kAuto).
  MeasureMode resolved_measure_mode() const {
    return measure_mode == MeasureMode::kAuto ? MeasureMode::kExact
                                              : measure_mode;
  }

  /// Retired event-core knobs, fixed; perfbench/traced_run.cpp reads them.
  static constexpr std::size_t sim_shards = 1;
  static constexpr double local_tick_period_s = 0.0;

  /// When non-empty, the run streams every trace event to this path as
  /// `propsim.trace` v1 JSONL. The in-memory counters in
  /// ExperimentResult::trace are kept with or without it.
  std::string trace_path;

  /// Parses and validates. Never aborts on bad input: every problem —
  /// unknown key, malformed value, out-of-range value, invalid
  /// combination (e.g. LTM or churn on a structured overlay) — is
  /// reported as a SpecIssue in the returned SpecResult.
  static SpecResult from_config(const Config& config);
};

/// Display names for the spec enums (also used in error messages and the
/// JSON output schema).
const char* to_string(ExperimentSpec::Topology v);
const char* to_string(ExperimentSpec::Overlay v);
const char* to_string(ExperimentSpec::Protocol v);
const char* to_string(ExperimentSpec::Heterogeneity v);
const char* to_string(ExperimentSpec::OracleMode v);
const char* to_string(ExperimentSpec::MeasureMode v);

/// One problem found while parsing a config into an ExperimentSpec.
struct SpecIssue {
  std::string key;      // offending key; empty for cross-key constraints
  std::string message;  // what is wrong
  std::string hint;     // optional fix ("did you mean ...", valid values)
};

/// Outcome of ExperimentSpec::from_config: either a valid spec, or the
/// full list of problems (parsing continues past the first error so a
/// config's issues are reported together).
struct SpecResult {
  bool ok() const { return errors.empty(); }
  /// The parsed spec; check-fails unless ok().
  const ExperimentSpec& spec() const;
  /// All issues, in config-key order; empty when ok().
  std::vector<SpecIssue> errors;
  /// One "config: <key>: <message> (<hint>)" line per issue.
  std::string error_report() const;

  ExperimentSpec spec_storage;  // valid only when ok()
};

struct ExperimentResult {
  /// Counter-name registry version for counters(): bumped whenever an
  /// existing name changes meaning or disappears; pure additions keep it.
  /// v2: added the event-bus counters (walk_hops, flood_hops,
  /// lookup_hops, exchange_aborts, warmup_exchanges,
  /// maintenance_exchanges, trace_events); all v1 names are unchanged.
  /// v3: added the resilience counters (timeouts, retries,
  /// aborted_mid_commit, fault_messages, fault_losses,
  /// fault_partition_drops, fault_crashes); v1/v2 names are unchanged.
  /// v4: added the scheduler counters (sim_events_executed,
  /// sim_events_scheduled, sim_events_cancelled); v1-v3 names are
  /// unchanged.
  /// v5: added the measurement counters (measure_exact_floods,
  /// measure_fast_floods, measure_snapshot_captures,
  /// measure_snapshot_reuses) — all invariant across measure_threads
  /// and trace sinks. v1-v4 names are unchanged.
  /// v6: added the threat-model counters (adversary_lies,
  /// adversary_drops, adversary_freeride_skips,
  /// adversary_eclipse_attempts, adversary_eclipse_captures,
  /// fault_storm_failures, fault_burst_losses) — all zero unless the
  /// corresponding adversary/storm/burst knob is set. v1-v5 names are
  /// unchanged.
  /// v7: added local_ticks and local_tick_digest. The workload that
  /// fed them is gone; both names are reserved and always 0, kept so
  /// the recorded benchmark digests (perfbench/workloads.json) hold.
  /// v1-v6 names are unchanged.
  static constexpr int kCountersVersion = 7;

  /// "lookup_ms" for unstructured overlays, "stretch" for DHTs.
  std::string metric_name;
  TimeSeries series;
  double initial_value = 0.0;
  double final_value = 0.0;

  std::uint64_t exchanges = 0;
  std::uint64_t attempts = 0;
  std::uint64_t ltm_rounds = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t churn_joins = 0;
  std::uint64_t churn_leaves = 0;
  std::uint64_t churn_failures = 0;
  std::uint64_t commit_conflicts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t aborted_mid_commit = 0;
  std::uint64_t fault_messages = 0;
  std::uint64_t fault_losses = 0;
  std::uint64_t fault_partition_drops = 0;
  std::uint64_t fault_crashes = 0;
  std::uint64_t fault_storm_failures = 0;
  std::uint64_t fault_burst_losses = 0;
  /// Byzantine layer totals (zero without an attached adversary).
  std::uint64_t adversary_lies = 0;
  std::uint64_t adversary_drops = 0;
  std::uint64_t adversary_freeride_skips = 0;
  std::uint64_t adversary_eclipse_attempts = 0;
  std::uint64_t adversary_eclipse_captures = 0;
  /// Eclipse-target neighbor seats held by attackers at the horizon.
  std::uint64_t adversary_eclipse_held = 0;
  /// Scheduler totals for the whole run, echoed in counters and the
  /// result JSON `sim` stanza.
  std::uint64_t sim_events_executed = 0;
  std::uint64_t sim_events_scheduled = 0;
  std::uint64_t sim_events_cancelled = 0;
  /// Measurement-engine totals. Flood counts tally one per distinct
  /// query source per sample tick (zero for stretch metrics, which
  /// route instead of flooding). measure_fast_floods is reserved and
  /// always 0: the fixed-point kernel it counted is gone, and the key
  /// stays in the JSON so counters v7 is unchanged. Snapshot captures
  /// + reuses sum to the sample count on unstructured runs; a reuse
  /// never affects values — a reused snapshot is byte-identical to the
  /// capture it skipped.
  std::uint64_t measure_exact_floods = 0;
  std::uint64_t measure_fast_floods = 0;
  std::uint64_t measure_snapshot_captures = 0;
  std::uint64_t measure_snapshot_reuses = 0;
  bool connected = false;
  std::size_t final_population = 0;

  /// Per-phase event counters and wall-clock phase timers from the run's
  /// event bus.
  obs::TraceSummary trace;

  /// Event-driven traffic results (lookup_rate > 0 only): windowed mean
  /// of what lookups actually experienced, plus distribution points.
  TimeSeries observed;
  std::uint64_t lookups_issued = 0;
  std::uint64_t lookups_unreachable = 0;
  double observed_p50_ms = 0.0;
  double observed_p95_ms = 0.0;

  /// Stable name -> value view of the protocol counters above, in a
  /// fixed order, so consumers (JSON output, sweep aggregation, new
  /// protocols) never need struct edits to pick up a new counter. Names
  /// are governed by kCountersVersion.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
};

ExperimentResult run_experiment(const ExperimentSpec& spec);

}  // namespace propsim
