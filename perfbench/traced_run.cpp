#include "traced_run.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "app/result_json.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "faults/fault_plan.h"
#include "gnutella/gnutella.h"
#include "measure/measure_engine.h"
#include "measure/snapshot_cache.h"
#include "metrics/convergence.h"
#include "metrics/metrics.h"
#include "obs/event_bus.h"
#include "sim/serial_scheduler.h"
#include "topology/latency_oracle.h"
#include "topology/transit_stub.h"
#include "workload/churn.h"
#include "workload/lookup_traffic.h"
#include "workload/lookups.h"

namespace propsim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and adds its wall time to `acc`.
template <typename Fn>
decltype(auto) timed(double& acc, Fn&& fn) {
  struct Span {
    double& acc;
    Clock::time_point t0 = Clock::now();
    ~Span() { acc += since(t0); }
  } span{acc};
  return fn();
}

/// What run_experiment has built by the time its engines are wired: the
/// physical world, the host draw and the overlay.
struct World {
  std::unique_ptr<TransitStubTopology> ts;
  std::unique_ptr<LatencyOracle> oracle;
  std::vector<NodeId> hosts;
  std::vector<NodeId> spares;
  std::unique_ptr<ChordRing> chord;
  std::unique_ptr<OverlayNetwork> net;
};

/// The scheduler and event bus exist before the overlay so build-time
/// join events are stamped on the bus, exactly as in run_experiment.
struct Clocks {
  SerialScheduler sim;
  obs::EventBus bus;

  explicit Clocks(const ExperimentSpec& spec) {
    bus.set_clock([this] { return sim.now(); });
    if (spec.protocol == ExperimentSpec::Protocol::kPropG ||
        spec.protocol == ExperimentSpec::Protocol::kPropO) {
      bus.set_phase_boundary(spec.prop.init_timer_s *
                             static_cast<double>(spec.prop.max_init_trial));
    }
  }
};

/// run_experiment's world build, in its order of RNG draws. The fault
/// injector, which run_experiment constructs between the host draw and
/// the overlay, draws from its own stream and schedules nothing, so the
/// caller builds it afterwards.
World build_world(const ExperimentSpec& spec, Rng& rng, obs::EventBus& bus,
                  LayerProfile& layers) {
  World w;
  const auto cfg = spec.topology == ExperimentSpec::Topology::kTsLarge
                       ? TransitStubConfig::ts_large()
                       : TransitStubConfig::ts_small();
  w.ts = timed(layers.topology_build_s, [&] {
    return std::make_unique<TransitStubTopology>(make_transit_stub(cfg, rng));
  });
  LatencyOracleOptions oracle_options;
  oracle_options.max_cached_rows = spec.oracle_cache_rows;
  w.oracle = timed(layers.oracle_build_s, [&] {
    return std::make_unique<LatencyOracle>(*w.ts, oracle_options);
  });

  std::vector<NodeId> stub_pool = w.ts->stub_nodes;
  rng.shuffle(stub_pool);
  const auto n = static_cast<std::ptrdiff_t>(spec.nodes);
  w.hosts.assign(stub_pool.begin(), stub_pool.begin() + n);
  w.spares.assign(stub_pool.begin() + n, stub_pool.begin() + n + n / 4);

  timed(layers.overlay_build_s, [&] {
    if (spec.overlay == ExperimentSpec::Overlay::kChord) {
      w.chord = std::make_unique<ChordRing>(
          ChordRing::build_random(spec.nodes, ChordConfig{}, rng));
      w.net = std::make_unique<OverlayNetwork>(
          make_chord_overlay(*w.chord, w.hosts, *w.oracle, &bus));
    } else {
      w.net = std::make_unique<OverlayNetwork>(build_gnutella_overlay(
          GnutellaConfig{}, w.hosts, *w.oracle, rng, &bus));
    }
  });
  return w;
}

}  // namespace

std::string traced_run_unsupported(const ExperimentSpec& spec) {
  using S = ExperimentSpec;
  if (spec.topology == S::Topology::kWaxman) return "topology = waxman";
  if (spec.oracle_mode == S::OracleMode::kDijkstra) return "oracle = dijkstra";
  if (spec.overlay != S::Overlay::kGnutella &&
      spec.overlay != S::Overlay::kChord) {
    return std::string("overlay = ") + to_string(spec.overlay);
  }
  if (spec.protocol != S::Protocol::kPropG &&
      spec.protocol != S::Protocol::kPropO) {
    return std::string("protocol = ") + to_string(spec.protocol);
  }
  if (spec.heterogeneity != S::Heterogeneity::kNone) return "heterogeneity";
  if (spec.fraction_fast_dest >= 0.0) return "fraction_fast_dest";
  if (spec.churn.join_rate_per_s > 0.0 || spec.churn.leave_rate_per_s > 0.0 ||
      spec.churn.fail_rate_per_s > 0.0) {
    return "churn";
  }
  if (!spec.faults.partitions.empty()) return "fault partitions";
  if (!spec.faults.storms.empty()) return "fault storms";
  if (spec.adversary.active()) return "adversary";
  if (spec.lookup_rate_per_s > 0.0 && spec.overlay != S::Overlay::kGnutella) {
    return "lookup_rate on a structured overlay";
  }
  if (spec.sim_shards != 1 && spec.sim_shards != 0) return "sim_shards";
  if (spec.local_tick_period_s > 0.0) return "sim_local_ticks";
  if (!spec.trace_path.empty()) return "trace";
  return {};
}

double time_world_build(const ExperimentSpec& spec) {
  LayerProfile layers;
  Rng rng(spec.seed);
  Clocks clocks(spec);
  const auto t0 = Clock::now();
  const World world = build_world(spec, rng, clocks.bus, layers);
  return since(t0);
}

TracedOutcome traced_run(const ExperimentSpec& spec) {
  TracedOutcome out;
  LayerProfile& layers = out.layers;
  const auto t_start = Clock::now();

  Rng rng(spec.seed);
  Clocks clocks(spec);
  SerialScheduler& sim = clocks.sim;
  obs::EventBus& bus = clocks.bus;
  World world = build_world(spec, rng, bus, layers);
  OverlayNetwork& net = *world.net;

  std::unique_ptr<FaultInjector> faults;
  if (spec.faults.active()) {
    faults = std::make_unique<FaultInjector>(sim, spec.faults, spec.seed + 131);
    faults->set_trace(&bus);
    const TransitStubTopology& ts = *world.ts;
    std::vector<std::uint32_t> host_domain(ts.graph.node_count(),
                                           FaultInjector::kNoDomain);
    for (NodeId h = 0; h < ts.graph.node_count(); ++h) {
      if (ts.kind[h] == NodeKind::kStub) host_domain[h] = ts.domain[h];
    }
    faults->set_host_domains(std::move(host_domain));
  }

  // run_experiment splits a heterogeneity stream off the main Rng even
  // when heterogeneity is off; the draw is part of the seed chain.
  Rng hrng = rng.split();
  (void)hrng;

  Rng qrng(spec.seed ^ 0x2545f4914f6cdd1dULL);
  const bool fault_crashes_on =
      faults != nullptr && spec.faults.crash_per_negotiation > 0.0;
  std::vector<QueryPair> queries;
  if (!fault_crashes_on) {
    queries = uniform_queries(net.graph(), spec.queries, qrng);
  }

  OverlayNetwork::LinkFilter flood_filter;
  if (faults) {
    flood_filter = [n = &net, f = faults.get()](SlotId a, SlotId b) {
      return !f->partitioned(n->placement().host_of(a),
                             n->placement().host_of(b));
    };
  }

  MeasureEngine measure(spec.measure_threads,
                        spec.resolved_measure_mode() ==
                                ExperimentSpec::MeasureMode::kFast
                            ? MeasureMode::kFast
                            : MeasureMode::kExact);
  SnapshotCache snap_cache([&net, &flood_filter] {
    return OverlaySnapshot::capture(net,
                                    flood_filter ? &flood_filter : nullptr);
  });
  std::uint64_t untracked_version = 0;
  auto topology_version = [&]() -> std::uint64_t {
    if (!obs::trace_compiled_in()) return ++untracked_version;
    using K = obs::TraceEventKind;
    return bus.count(K::kExchangeCommit) + bus.count(K::kJoin) +
           bus.count(K::kLeave) + bus.count(K::kFail) +
           bus.count(K::kLtmRound) + bus.count(K::kFaultCrash) +
           bus.count(K::kPartitionStart) + bus.count(K::kPartitionEnd);
  };

  // Spans that run inside an event; the audit hook subtracts them from
  // that event's interval to get the event core's self time.
  double nested_s = 0.0;
  const auto nested = [&nested_s](double& acc, auto&& fn) -> decltype(auto) {
    const double before = acc;
    struct Credit {
      double& acc;
      double before;
      double& nested_s;
      ~Credit() { nested_s += acc - before; }
    } credit{acc, before, nested_s};
    return timed(acc, fn);
  };

  ExperimentResult result;
  const bool structured = spec.overlay != ExperimentSpec::Overlay::kGnutella;
  result.metric_name = structured ? "stretch" : "lookup_ms";
  const OverlaySnapshot* snap = nullptr;
  auto prepare = [&] {
    nested(layers.snapshot_s, [&] {
      if (fault_crashes_on) {
        queries = uniform_queries(net.graph(), spec.queries, qrng);
      }
      if (!structured) snap = &snap_cache.at(topology_version());
    });
  };
  auto metric = [&]() -> double {
    return nested(layers.kernel_s, [&] {
      if (structured) {
        return measure.stretch(net, queries, chord_router(net, *world.chord))
            .stretch;
      }
      return measure.average_lookup_latency(*snap, queries, nullptr);
    });
  };

  auto prop = std::make_unique<PropEngine>(net, sim, spec.prop,
                                           spec.seed + 101);
  if (faults) prop->set_faults(faults.get());

  std::unique_ptr<ChurnProcess> churn;
  if (fault_crashes_on) {
    churn = std::make_unique<ChurnProcess>(net, sim, prop.get(),
                                           GnutellaConfig{}, spec.churn,
                                           world.spares, spec.seed + 107);
    churn->set_faults(faults.get());
    faults->set_failure_executor(churn.get());
  }

  std::unique_ptr<LookupTrafficProcess> traffic;
  if (spec.lookup_rate_per_s > 0.0) {
    LookupTrafficParams tparams;
    tparams.rate_per_s = spec.lookup_rate_per_s;
    tparams.start_s = 0.0;
    tparams.end_s = spec.horizon_s;
    tparams.window_s = spec.sample_interval_s;
    auto flood_scratch = std::make_shared<OverlayNetwork::FloodScratch>();
    auto resolve = [&, flood_scratch](const QueryPair& q) -> double {
      const double before = layers.lookup_s;
      const double latency = nested(layers.lookup_s, [&] {
        return net.flood_latencies_into(
            *flood_scratch, q.src, nullptr,
            flood_filter ? &flood_filter : nullptr)[q.dst];
      });
      layers.lookup_us.push_back(
          static_cast<float>((layers.lookup_s - before) * 1e6));
      return latency;
    };
    traffic = std::make_unique<LookupTrafficProcess>(net, sim, tparams,
                                                     resolve, spec.seed + 109);
  }

  ConvergenceSampler sampler(
      sim, 0.0, spec.horizon_s, spec.sample_interval_s, prepare,
      {ConvergenceSampler::NamedMetric{result.metric_name, metric}});
  if (faults) faults->start();
  if (traffic) traffic->start();
  prop->start();
  if (churn) churn->start();

  // The audit hook fires after every executed event: the interval since
  // the previous hook is one heap pop plus one callback.
  auto last_event = Clock::now();
  sim.set_audit(
      [&](const Scheduler& s) {
        const auto now = Clock::now();
        const double self_s =
            std::chrono::duration<double>(now - last_event).count() -
            nested_s;
        layers.event_s += self_s;
        layers.event_us.push_back(static_cast<float>(self_s * 1e6));
        layers.pending_peak = std::max<std::uint64_t>(layers.pending_peak,
                                                      s.pending_events());
        nested_s = 0.0;
        last_event = now;
      },
      1);
  sim.run_until(spec.horizon_s);
  sim.set_audit(nullptr, 0);

  result.series = sampler.take_series();
  result.initial_value = result.series.first_value();
  result.final_value = result.series.last_value();
  result.exchanges = prop->stats().exchanges;
  result.attempts = prop->stats().attempts;
  result.commit_conflicts = prop->stats().commit_conflicts;
  result.timeouts = prop->stats().timeouts;
  result.retries = prop->stats().retries;
  result.aborted_mid_commit = prop->stats().aborted_mid_commit;
  if (faults) {
    result.fault_messages = faults->stats().messages;
    result.fault_losses = faults->stats().losses;
    result.fault_partition_drops = faults->stats().partition_drops;
    result.fault_crashes = faults->stats().crashes_executed;
    result.fault_storm_failures = faults->stats().storm_failures;
    result.fault_burst_losses = faults->stats().burst_losses;
  }
  if (traffic) {
    result.observed = traffic->observed();
    result.lookups_issued = traffic->issued();
    result.lookups_unreachable = traffic->unreachable();
    if (!traffic->latencies().empty()) {
      result.observed_p50_ms = traffic->latencies().median();
      result.observed_p95_ms = traffic->latencies().quantile(0.95);
    }
  }
  result.sim_events_executed = sim.executed_events();
  result.sim_events_scheduled = sim.scheduled_events();
  result.sim_events_cancelled = sim.cancelled_events();
  result.measure_exact_floods = measure.stats().exact_floods;
  result.measure_fast_floods = measure.stats().fast_floods;
  result.measure_snapshot_captures = snap_cache.captures();
  result.measure_snapshot_reuses = snap_cache.reuses();
  result.control_messages = net.traffic().control_total();
  if (churn) {
    result.churn_joins = churn->joins();
    result.churn_leaves = churn->leaves();
    result.churn_failures = churn->failures();
  }
  result.connected = net.graph().active_subgraph_connected();
  result.final_population = net.size();
  result.trace = bus.summary();

  timed(layers.output_s, [&] {
    out.result = experiment_result_json(spec, result);
    // The untraced path pays for serialization; so does the replica.
    return out.result.dump().size();
  });
  layers.wall_s = since(t_start);

  layers.snapshot_captures = result.measure_snapshot_captures;
  layers.snapshot_reuses = result.measure_snapshot_reuses;
  layers.floods = result.measure_exact_floods + result.measure_fast_floods;
  layers.attempts = result.attempts;
  layers.exchanges = result.exchanges;
  layers.control_messages = result.control_messages;
  layers.retries = result.retries;
  layers.timeouts = result.timeouts;
  layers.losses = result.fault_losses;
  layers.events_executed = result.sim_events_executed;
  layers.events_scheduled = result.sim_events_scheduled;
  layers.events_cancelled = result.sim_events_cancelled;
  return out;
}

}  // namespace propsim::perfbench
