#include "app/result_json.h"

namespace propsim {

Json timeseries_json(const TimeSeries& series) {
  Json out = Json::array();
  for (const auto& p : series.points()) {
    Json point = Json::object();
    point.set("t", p.time).set("value", p.value);
    out.push_back(std::move(point));
  }
  return out;
}

Json experiment_result_json(const ExperimentSpec& spec,
                            const ExperimentResult& result) {
  Json out = Json::object();
  out.set("schema", "propsim.result");
  out.set("version", kResultSchemaVersion);

  Json spec_json = Json::object();
  spec_json.set("topology", to_string(spec.topology))
      .set("overlay", to_string(spec.overlay))
      .set("protocol", to_string(spec.protocol))
      .set("nodes", static_cast<std::uint64_t>(spec.nodes))
      .set("seed", static_cast<std::uint64_t>(spec.seed))
      .set("horizon_s", spec.horizon_s)
      .set("sample_interval_s", spec.sample_interval_s)
      .set("queries", static_cast<std::uint64_t>(spec.queries))
      .set("oracle", to_string(spec.oracle_mode))
      .set("measure_mode", to_string(spec.resolved_measure_mode()));
  out.set("spec", std::move(spec_json));

  Json metric = Json::object();
  metric.set("name", result.metric_name)
      .set("initial", result.initial_value)
      .set("final", result.final_value)
      .set("series", timeseries_json(result.series));
  out.set("metric", std::move(metric));

  Json counters = Json::object();
  for (const auto& [name, value] : result.counters()) {
    counters.set(name, value);
  }
  out.set("counters", std::move(counters));
  out.set("counters_version", ExperimentResult::kCountersVersion);

  // Scheduler stanza (additive): whole-run event totals.
  Json sim = Json::object();
  sim.set("events_executed", result.sim_events_executed)
      .set("events_scheduled", result.sim_events_scheduled)
      .set("events_cancelled", result.sim_events_cancelled);
  out.set("sim", std::move(sim));

  // Measurement stanza (additive). The resolved kernel plus its work
  // counters, all invariant across measure_threads and trace sinks.
  Json measure = Json::object();
  measure.set("mode", to_string(spec.resolved_measure_mode()))
      .set("exact_floods", result.measure_exact_floods)
      .set("fast_floods", result.measure_fast_floods)
      .set("snapshot_captures", result.measure_snapshot_captures)
      .set("snapshot_reuses", result.measure_snapshot_reuses);
  out.set("measure", std::move(measure));

  // Observability summary (additive; schema stays v1). The bus always
  // counts, so "enabled" is always true. Per-phase kind counts only list
  // non-zero kinds to keep small results small.
  Json trace = Json::object();
  trace.set("enabled", true)
      .set("phase_boundary_s", result.trace.phase_boundary_s)
      .set("events", result.trace.events);
  Json phases = Json::object();
  for (std::size_t p = 0; p < obs::kTracePhaseCount; ++p) {
    const auto phase = static_cast<obs::TracePhase>(p);
    Json phase_json = Json::object();
    phase_json.set("events", result.trace.events_by_phase[p])
        .set("wall_ms", phase == obs::TracePhase::kWarmup
                            ? result.trace.warmup_wall_ms
                            : result.trace.maintenance_wall_ms);
    Json by_kind = Json::object();
    for (std::size_t k = 0; k < obs::kTraceEventKindCount; ++k) {
      const auto kind = static_cast<obs::TraceEventKind>(k);
      if (result.trace.count(phase, kind) == 0) continue;
      by_kind.set(obs::to_string(kind), result.trace.count(phase, kind));
    }
    phase_json.set("by_kind", std::move(by_kind));
    phases.set(obs::to_string(phase), std::move(phase_json));
  }
  trace.set("by_phase", std::move(phases));
  if (!result.trace.sink_path.empty()) {
    Json sink = Json::object();
    sink.set("path", result.trace.sink_path)
        .set("events", result.trace.sink_events);
    trace.set("sink", std::move(sink));
  }
  out.set("trace", std::move(trace));

  // Fault-plan stanza (additive; present only when the spec injects
  // faults, so fault-free results stay byte-identical to pre-fault runs).
  if (spec.faults.active()) {
    Json faults = Json::object();
    faults.set("loss", spec.faults.message_loss)
        .set("jitter", spec.faults.latency_jitter)
        .set("crash", spec.faults.crash_per_negotiation)
        .set("max_retries",
             static_cast<std::uint64_t>(spec.faults.max_negotiation_retries))
        .set("messages", result.fault_messages)
        .set("losses", result.fault_losses)
        .set("partition_drops", result.fault_partition_drops)
        .set("crashes", result.fault_crashes)
        .set("timeouts", result.timeouts)
        .set("retries", result.retries)
        .set("aborted_mid_commit", result.aborted_mid_commit);
    if (!spec.faults.partitions.empty()) {
      Json windows = Json::array();
      for (const PartitionWindow& w : spec.faults.partitions) {
        Json window = Json::object();
        if (w.stub_domain == kPartitionDomainAuto) {
          window.set("stub_domain", "auto");
        } else {
          window.set("stub_domain",
                     static_cast<std::uint64_t>(w.stub_domain));
        }
        window.set("start_s", w.start_s).set("end_s", w.end_s);
        windows.push_back(std::move(window));
      }
      faults.set("partitions", std::move(windows));
    }
    // Burst-loss and storm fields are additive and keyed off their own
    // knobs, so Bernoulli-loss results stay byte-identical to pre-burst
    // runs.
    if (spec.faults.loss_burst_len > 0) {
      faults
          .set("loss_burst_len",
               static_cast<std::uint64_t>(spec.faults.loss_burst_len))
          .set("burst_losses", result.fault_burst_losses);
    }
    if (!spec.faults.storms.empty()) {
      Json storms = Json::array();
      for (const StormWindow& w : spec.faults.storms) {
        Json storm = Json::object();
        if (w.stub_domain == kPartitionDomainAuto) {
          storm.set("stub_domain", "auto");
        } else {
          storm.set("stub_domain",
                    static_cast<std::uint64_t>(w.stub_domain));
        }
        storm.set("start_s", w.start_s).set("window_s", w.window_s);
        storms.push_back(std::move(storm));
      }
      faults.set("storms", std::move(storms));
      faults.set("storm_failures", result.fault_storm_failures);
    }
    out.set("faults", std::move(faults));
  }

  // Adversary stanza (additive; present only when the spec assigns a
  // byzantine model, so honest results stay byte-identical).
  if (spec.adversary.active()) {
    Json adversary = Json::object();
    adversary.set("liar_fraction", spec.adversary.liar_fraction)
        .set("freeride_fraction", spec.adversary.freeride_fraction)
        .set("dropper_fraction", spec.adversary.dropper_fraction)
        .set("eclipse_fraction", spec.adversary.eclipse_fraction)
        .set("lie_factor", spec.adversary.lie_factor)
        .set("drop_probability", spec.adversary.drop_probability)
        .set("lies", result.adversary_lies)
        .set("drops", result.adversary_drops)
        .set("freeride_skips", result.adversary_freeride_skips);
    if (spec.adversary.eclipse_fraction > 0.0) {
      if (spec.adversary.eclipse_target == kInvalidSlot) {
        adversary.set("eclipse_target", "auto");
      } else {
        adversary.set("eclipse_target", static_cast<std::uint64_t>(
                                            spec.adversary.eclipse_target));
      }
      adversary.set("eclipse_attempts", result.adversary_eclipse_attempts)
          .set("eclipse_captures", result.adversary_eclipse_captures)
          .set("eclipse_held", result.adversary_eclipse_held);
    }
    out.set("adversary", std::move(adversary));
  }

  if (result.lookups_issued > 0) {
    Json traffic = Json::object();
    traffic.set("issued", result.lookups_issued)
        .set("unreachable", result.lookups_unreachable)
        .set("p50_ms", result.observed_p50_ms)
        .set("p95_ms", result.observed_p95_ms)
        .set("observed", timeseries_json(result.observed));
    out.set("traffic", std::move(traffic));
  }

  out.set("connected", result.connected);
  out.set("population", static_cast<std::uint64_t>(result.final_population));
  return out;
}

}  // namespace propsim
