#include "app/experiment.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "analysis/invariant_checker.h"
#include "app/spec_keys.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "gnutella/gnutella.h"
#include "measure/measure_engine.h"
#include "measure/snapshot_cache.h"
#include "metrics/convergence.h"
#include "metrics/metrics.h"
#include "pastry/pastry.h"
#include "sim/scheduler.h"
#include "tapestry/tapestry.h"
#include "topology/random_graphs.h"
#include "topology/transit_stub.h"
#include "workload/host_selection.h"
#include "workload/lookup_traffic.h"
#include "workload/lookups.h"

namespace propsim {

const char* to_string(ExperimentSpec::Topology v) {
  switch (v) {
    case ExperimentSpec::Topology::kTsLarge: return "ts-large";
    case ExperimentSpec::Topology::kTsSmall: return "ts-small";
    case ExperimentSpec::Topology::kWaxman: return "waxman";
  }
  return "?";
}

const char* to_string(ExperimentSpec::Overlay v) {
  switch (v) {
    case ExperimentSpec::Overlay::kGnutella: return "gnutella";
    case ExperimentSpec::Overlay::kChord: return "chord";
    case ExperimentSpec::Overlay::kPastry: return "pastry";
    case ExperimentSpec::Overlay::kTapestry: return "tapestry";
    case ExperimentSpec::Overlay::kCan: return "can";
  }
  return "?";
}

const char* to_string(ExperimentSpec::Protocol v) {
  switch (v) {
    case ExperimentSpec::Protocol::kNone: return "none";
    case ExperimentSpec::Protocol::kPropG: return "prop-g";
    case ExperimentSpec::Protocol::kPropO: return "prop-o";
    case ExperimentSpec::Protocol::kLtm: return "ltm";
  }
  return "?";
}

const char* to_string(ExperimentSpec::Heterogeneity v) {
  switch (v) {
    case ExperimentSpec::Heterogeneity::kNone: return "none";
    case ExperimentSpec::Heterogeneity::kBimodal: return "bimodal";
    case ExperimentSpec::Heterogeneity::kBimodalByDegree:
      return "bimodal-degree";
  }
  return "?";
}

const char* to_string(ExperimentSpec::OracleMode v) {
  switch (v) {
    case ExperimentSpec::OracleMode::kAuto: return "auto";
    case ExperimentSpec::OracleMode::kHierarchical: return "hierarchical";
    case ExperimentSpec::OracleMode::kDijkstra: return "dijkstra";
  }
  return "?";
}

const char* to_string(ExperimentSpec::MeasureMode v) {
  switch (v) {
    case ExperimentSpec::MeasureMode::kAuto: return "auto";
    case ExperimentSpec::MeasureMode::kExact: return "exact";
    case ExperimentSpec::MeasureMode::kFast: return "fast";
  }
  return "?";
}

const ExperimentSpec& SpecResult::spec() const {
  PROPSIM_CHECK(ok() && "SpecResult::spec() on a failed parse");
  return spec_storage;
}

std::string SpecResult::error_report() const {
  std::string out;
  for (const SpecIssue& issue : errors) {
    out += "config: ";
    if (!issue.key.empty()) out += issue.key + ": ";
    out += issue.message;
    if (!issue.hint.empty()) out += " (" + issue.hint + ")";
    out += "\n";
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
ExperimentResult::counters() const {
  using obs::TraceEventKind;
  using obs::TracePhase;
  return {
      {"exchanges", exchanges},
      {"attempts", attempts},
      {"ltm_rounds", ltm_rounds},
      {"control_messages", control_messages},
      {"churn_joins", churn_joins},
      {"churn_leaves", churn_leaves},
      {"churn_failures", churn_failures},
      {"commit_conflicts", commit_conflicts},
      {"lookups_issued", lookups_issued},
      {"lookups_unreachable", lookups_unreachable},
      // v2: event-bus counters (all zero in a PROPSIM_TRACE=OFF build).
      {"walk_hops", trace.count(TraceEventKind::kWalkHop)},
      {"flood_hops", trace.count(TraceEventKind::kFloodHop)},
      {"lookup_hops", trace.count(TraceEventKind::kLookupHop)},
      {"exchange_aborts", trace.count(TraceEventKind::kExchangeAbort)},
      {"warmup_exchanges",
       trace.count(TracePhase::kWarmup, TraceEventKind::kExchangeCommit)},
      {"maintenance_exchanges",
       trace.count(TracePhase::kMaintenance,
                   TraceEventKind::kExchangeCommit)},
      {"trace_events", trace.events},
      // v3: resilience counters (two-phase protocol + fault injection).
      {"timeouts", timeouts},
      {"retries", retries},
      {"aborted_mid_commit", aborted_mid_commit},
      {"fault_messages", fault_messages},
      {"fault_losses", fault_losses},
      {"fault_partition_drops", fault_partition_drops},
      {"fault_crashes", fault_crashes},
      // v4: scheduler counters.
      {"sim_events_executed", sim_events_executed},
      {"sim_events_scheduled", sim_events_scheduled},
      {"sim_events_cancelled", sim_events_cancelled},
      // v5: measurement-engine counters — flood counts are invariant
      // across measure_threads; the capture/reuse split
      // depends on the trace build mode (OFF builds never reuse).
      {"measure_exact_floods", measure_exact_floods},
      {"measure_fast_floods", measure_fast_floods},
      {"measure_snapshot_captures", measure_snapshot_captures},
      {"measure_snapshot_reuses", measure_snapshot_reuses},
      // v6: byzantine-behavior + correlated-failure counters; all zero
      // unless an adversary layer or storm/burst fault knobs are active.
      {"adversary_lies", adversary_lies},
      {"adversary_drops", adversary_drops},
      {"adversary_freeride_skips", adversary_freeride_skips},
      {"adversary_eclipse_attempts", adversary_eclipse_attempts},
      {"adversary_eclipse_captures", adversary_eclipse_captures},
      {"fault_storm_failures", fault_storm_failures},
      {"fault_burst_losses", fault_burst_losses},
      // v7: reserved, always 0; dropping them would change the recorded
      // benchmark digests (perfbench/workloads.json).
      {"local_ticks", 0},
      {"local_tick_digest", 0},
  };
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  Rng rng(spec.seed);

  // --- Physical topology. ---
  Graph waxman;  // storage when selected
  std::unique_ptr<TransitStubTopology> ts;
  const Graph* physical = nullptr;
  std::vector<NodeId> stub_pool;
  switch (spec.topology) {
    case ExperimentSpec::Topology::kTsLarge:
    case ExperimentSpec::Topology::kTsSmall: {
      ts = std::make_unique<TransitStubTopology>(
          make_transit_stub(transit_stub_config(spec.topology), rng));
      physical = &ts->graph;
      stub_pool = ts->stub_nodes;
      break;
    }
    case ExperimentSpec::Topology::kWaxman: {
      waxman = make_waxman_graph(std::max<std::size_t>(4 * spec.nodes, 64),
                                 0.25, 0.4, 200.0, 2.0, rng);
      physical = &waxman;
      stub_pool.resize(waxman.node_count());
      for (NodeId h = 0; h < waxman.node_count(); ++h) stub_pool[h] = h;
      break;
    }
  }
  PROPSIM_CHECK(spec.nodes + spec.nodes / 4 <= stub_pool.size());

  // Oracle engine: exact hierarchical tables on transit-stub graphs
  // (unless the spec forces Dijkstra rows), LRU-bounded rows elsewhere.
  LatencyOracleOptions oracle_options;
  oracle_options.max_cached_rows = spec.oracle_cache_rows;
  std::unique_ptr<LatencyOracle> oracle_owner;
  if (ts && spec.oracle_mode != ExperimentSpec::OracleMode::kDijkstra) {
    oracle_owner = std::make_unique<LatencyOracle>(*ts, oracle_options);
  } else {
    PROPSIM_CHECK(spec.oracle_mode !=
                  ExperimentSpec::OracleMode::kHierarchical);
    oracle_owner = std::make_unique<LatencyOracle>(*physical, oracle_options);
  }
  LatencyOracle& oracle = *oracle_owner;

  // --- Simulated clock + observability bus. Both exist before the
  // substrate so build-time join events are stamped (at t = 0) and every
  // engine reaches the bus through the overlay. The bus is created
  // unconditionally: its counters never touch the RNG or the event
  // queue, so results are identical with and without a trace sink. ---
  Scheduler sim;
  obs::EventBus bus;
  bus.set_clock([&sim] { return sim.now(); });
  if (spec.protocol == ExperimentSpec::Protocol::kPropG ||
      spec.protocol == ExperimentSpec::Protocol::kPropO) {
    // Global warm-up approximation: each node probes at the base rate
    // for its first MAX_INIT_TRIAL trials, one trial per INIT_TIMER.
    bus.set_phase_boundary(spec.prop.init_timer_s *
                           static_cast<double>(spec.prop.max_init_trial));
  }
  std::unique_ptr<obs::TraceSink> sink;
  if (!spec.trace_path.empty()) {
    sink = std::make_unique<obs::TraceSink>(spec.trace_path,
                                            spec.trace_buffer_events);
    PROPSIM_CHECK(sink->ok() && "cannot open trace output file");
    bus.attach_sink(sink.get());
  }

  // --- Overlay hosts (plus spares for churn joins). ---
  rng.shuffle(stub_pool);
  std::vector<NodeId> hosts(stub_pool.begin(),
                            stub_pool.begin() +
                                static_cast<std::ptrdiff_t>(spec.nodes));
  std::vector<NodeId> spares(
      stub_pool.begin() + static_cast<std::ptrdiff_t>(spec.nodes),
      stub_pool.begin() + static_cast<std::ptrdiff_t>(spec.nodes +
                                                      spec.nodes / 4));

  // --- Fault plan, between the overlay and the engines. The injector is
  // constructed only when the spec asks for faults; otherwise every code
  // path below runs byte-identically to a fault-free build (the engines
  // gate all hardened branches on the injector's presence). ---
  std::unique_ptr<FaultInjector> faults;
  if (spec.faults.active()) {
    FaultParams fparams = spec.faults;
    // "auto" picks the stub domain hosting the most overlay nodes so
    // the window (or storm) is guaranteed to hit a meaningful
    // population.
    const auto densest_stub_domain = [&]() -> std::uint32_t {
      PROPSIM_CHECK(ts != nullptr);
      std::vector<std::size_t> population(ts->stub_domain_count, 0);
      for (const NodeId h : hosts) {
        if (ts->kind[h] == NodeKind::kStub) ++population[ts->domain[h]];
      }
      return static_cast<std::uint32_t>(
          std::max_element(population.begin(), population.end()) -
          population.begin());
    };
    for (PartitionWindow& w : fparams.partitions) {
      PROPSIM_CHECK(ts != nullptr &&
                    "partition windows require a transit-stub topology");
      if (w.stub_domain == kPartitionDomainAuto) {
        w.stub_domain = densest_stub_domain();
      }
      PROPSIM_CHECK(w.stub_domain < ts->stub_domain_count);
    }
    for (StormWindow& w : fparams.storms) {
      PROPSIM_CHECK(ts != nullptr &&
                    "crash storms require a transit-stub topology");
      if (w.stub_domain == kPartitionDomainAuto) {
        w.stub_domain = densest_stub_domain();
      }
      PROPSIM_CHECK(w.stub_domain < ts->stub_domain_count);
    }
    faults = std::make_unique<FaultInjector>(sim, fparams, spec.seed + 131);
    faults->set_trace(&bus);
    if (ts) {
      std::vector<std::uint32_t> host_domain(physical->node_count(),
                                             FaultInjector::kNoDomain);
      for (NodeId h = 0; h < physical->node_count(); ++h) {
        if (ts->kind[h] == NodeKind::kStub) host_domain[h] = ts->domain[h];
      }
      faults->set_host_domains(std::move(host_domain));
    }
  }

  // --- Overlay substrate + routed-latency metric. ---
  GnutellaConfig gcfg;
  std::unique_ptr<ChordRing> chord;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<TapestryNetwork> tapestry;
  std::unique_ptr<CanSpace> can;
  std::unique_ptr<OverlayNetwork> net;
  switch (spec.overlay) {
    case ExperimentSpec::Overlay::kGnutella:
      net = std::make_unique<OverlayNetwork>(
          build_gnutella_overlay(gcfg, hosts, oracle, rng, &bus));
      break;
    case ExperimentSpec::Overlay::kChord:
      chord = std::make_unique<ChordRing>(
          ChordRing::build_random(spec.nodes, ChordConfig{}, rng));
      net = std::make_unique<OverlayNetwork>(
          make_chord_overlay(*chord, hosts, oracle, &bus));
      break;
    case ExperimentSpec::Overlay::kPastry:
      pastry = std::make_unique<PastryNetwork>(
          PastryNetwork::build_random(spec.nodes, PastryConfig{}, rng));
      net = std::make_unique<OverlayNetwork>(
          make_pastry_overlay(*pastry, hosts, oracle, &bus));
      break;
    case ExperimentSpec::Overlay::kTapestry:
      tapestry = std::make_unique<TapestryNetwork>(
          TapestryNetwork::build_random(spec.nodes, TapestryConfig{}, rng));
      net = std::make_unique<OverlayNetwork>(
          make_tapestry_overlay(*tapestry, hosts, oracle, &bus));
      break;
    case ExperimentSpec::Overlay::kCan:
      can = std::make_unique<CanSpace>(CanSpace::build(spec.nodes, rng));
      net = std::make_unique<OverlayNetwork>(
          make_can_overlay(*can, hosts, oracle, &bus));
      break;
  }

  // --- Heterogeneity (processing delays follow hosts). ---
  std::unique_ptr<BimodalDelays> delays;
  Rng hrng = rng.split();
  switch (spec.heterogeneity) {
    case ExperimentSpec::Heterogeneity::kNone:
      break;
    case ExperimentSpec::Heterogeneity::kBimodal:
      delays = std::make_unique<BimodalDelays>(
          make_bimodal_delays(*net, spec.bimodal, hrng));
      break;
    case ExperimentSpec::Heterogeneity::kBimodalByDegree:
      delays = std::make_unique<BimodalDelays>(
          make_bimodal_delays_by_degree(*net, spec.bimodal, hrng));
      break;
  }

  // --- Workload. ---
  // With churn the membership shifts under the workload, so queries are
  // regenerated at every sample; without churn a fixed query set keeps
  // the series noise-free.
  Rng qrng(spec.seed ^ 0x2545f4914f6cdd1dULL);
  const bool has_churn = spec.churn.join_rate_per_s > 0.0 ||
                         spec.churn.leave_rate_per_s > 0.0 ||
                         spec.churn.fail_rate_per_s > 0.0;
  // Injected crashes change membership just like churn failures do, so
  // they force per-sample query regeneration too.
  const bool fault_crashes_on =
      faults != nullptr && (spec.faults.crash_per_negotiation > 0.0 ||
                            !spec.faults.storms.empty());
  const bool membership_changes = has_churn || fault_crashes_on;
  auto make_queries = [&]() -> std::vector<QueryPair> {
    if (spec.fraction_fast_dest >= 0.0) {
      return biased_queries(net->graph(), delays->slot_fast(*net),
                            spec.fraction_fast_dest, spec.queries, qrng);
    }
    return uniform_queries(net->graph(), spec.queries, qrng);
  };
  std::vector<QueryPair> queries;
  if (!membership_changes) queries = make_queries();

  // Under a fault plan, measurement and floods honor partition windows:
  // links whose hosts sit on opposite sides of a cut gateway are pruned.
  // Random per-message loss is deliberately not applied to floods —
  // flooding is redundant enough that independent edge loss rarely
  // changes the first response, and modeling it would burn RNG per edge
  // per lookup.
  OverlayNetwork::LinkFilter flood_filter;
  if (faults) {
    flood_filter = [n = net.get(), f = faults.get()](SlotId a, SlotId b) {
      return !f->partitioned(n->placement().host_of(a),
                             n->placement().host_of(b));
    };
  }

  // Storm victims are enumerated at the storm's fire time (not at
  // start()) so churn-era membership is honored: every slot active at
  // that instant whose host is a stub node of the failed domain goes
  // down, in active-slot order — no RNG involved.
  if (faults && !spec.faults.storms.empty()) {
    faults->set_storm_enumerator(
        [n = net.get(), t = ts.get()](std::uint32_t domain) {
          std::vector<SlotId> victims;
          for (const SlotId s : n->graph().active_slots()) {
            const NodeId h = n->placement().host_of(s);
            if (h < t->kind.size() && t->kind[h] == NodeKind::kStub &&
                t->domain[h] == domain) {
              victims.push_back(s);
            }
          }
          return victims;
        });
  }

  // --- Byzantine behavior layer, between the overlay and the engines.
  // Constructed only when a model fraction is nonzero; the engines gate
  // every adversarial branch on its presence, so an honest spec runs
  // byte-identically to a build without the layer. ---
  std::unique_ptr<AdversaryLayer> adversary;
  if (spec.adversary.active()) {
    adversary =
        std::make_unique<AdversaryLayer>(*net, spec.adversary, spec.seed);
    adversary->set_trace(&bus);
  }

  // Measurement engine for the metric sweeps. measure_threads is a pure
  // execution knob: results are bit-identical to the serial path for
  // any value (golden-tested), which is why it is not echoed into the
  // result JSON. The resolved measure_mode is echoed; a programmatic
  // kFast reaches the engine, which rejects it.
  MeasureEngine measure(spec.measure_threads,
                        spec.resolved_measure_mode() ==
                                ExperimentSpec::MeasureMode::kFast
                            ? MeasureMode::kFast
                            : MeasureMode::kExact);

  // Snapshot reuse across sample ticks: the cache recaptures only when
  // the topology version moved. The version is the sum of the bus's
  // topology-affecting event counts — every mutation of the overlay
  // graph, placement or partition state emits at least one of these, and
  // counts only grow, so an unchanged sum proves an unchanged overlay.
  // In a PROPSIM_TRACE=OFF build the counters cannot witness anything;
  // the fallback version bumps every call so the caches conservatively
  // recapture (values are identical either way — reuse is pure
  // caching — matching the trace-off bit-identity contract).
  auto capture_overlay = [&net, &flood_filter] {
    return OverlaySnapshot::capture(*net,
                                    flood_filter ? &flood_filter : nullptr);
  };
  SnapshotCache snap_cache(capture_overlay);
  // Event-driven Gnutella lookups flood their own cache under the same
  // version: sharing the sampler's would move its reuse counters, which
  // the result reports.
  SnapshotCache lookup_cache(capture_overlay);
  MeasureScratch lookup_scratch;
  OverlayNetwork::FloodScratch live_scratch;  // paranoid cross-check only
  std::uint64_t untracked_version = 0;
  auto topology_version = [&]() -> std::uint64_t {
    if (!obs::trace_compiled_in()) return ++untracked_version;
    using K = obs::TraceEventKind;
    return bus.count(K::kExchangeCommit) + bus.count(K::kJoin) +
           bus.count(K::kLeave) + bus.count(K::kFail) +
           bus.count(K::kLtmRound) + bus.count(K::kFaultCrash) +
           bus.count(K::kPartitionStart) + bus.count(K::kPartitionEnd);
  };

  // Per-tick shared state + metric closure, in the sampler's batched
  // form. The slot-delay view is re-materialized per sample because
  // PROP-G moves hosts and churn rebinds slots; each sample works
  // against one immutable snapshot, so worker threads never touch live
  // sim state and the partition filter is baked into the adjacency.
  // Query regeneration stays unconditional under membership churn (it
  // consumes qrng; skipping a tick would shift every later draw).
  ExperimentResult result;
  const bool structured = spec.overlay != ExperimentSpec::Overlay::kGnutella;
  result.metric_name = structured ? "stretch" : "lookup_ms";
  const OverlaySnapshot* snap = nullptr;
  std::vector<double> proc;
  const std::vector<double>* proc_ptr = nullptr;
  auto prepare = [&] {
    if (membership_changes) queries = make_queries();
    if (delays) {
      proc = delays->slot_delays(*net);
      proc_ptr = &proc;
    }
    if (spec.overlay == ExperimentSpec::Overlay::kGnutella) {
      snap = &snap_cache.at(topology_version());
    }
  };
  auto metric = [&]() -> double {
    switch (spec.overlay) {
      case ExperimentSpec::Overlay::kGnutella:
        return measure.average_lookup_latency(*snap, queries, proc_ptr);
      case ExperimentSpec::Overlay::kChord:
        return measure
            .stretch(*net, queries, chord_router(*net, *chord, proc_ptr))
            .stretch;
      case ExperimentSpec::Overlay::kPastry:
        return measure
            .stretch(*net, queries,
                     [&](const QueryPair& q) {
                       const auto path = pastry->lookup_path(
                           q.src, pastry->id_of(q.dst));
                       return path_latency(*net, path, proc_ptr);
                     })
            .stretch;
      case ExperimentSpec::Overlay::kTapestry:
        return measure
            .stretch(*net, queries,
                     [&](const QueryPair& q) {
                       const auto path = tapestry->lookup_path(
                           q.src, tapestry->id_of(q.dst));
                       return path_latency(*net, path, proc_ptr);
                     })
            .stretch;
      case ExperimentSpec::Overlay::kCan: {
        return measure
            .stretch(*net, queries,
                     [&](const QueryPair& q) {
                       const auto path = can->route_path(
                           q.src, can->zone(q.dst).center());
                       return path_latency(*net, path, proc_ptr);
                     })
            .stretch;
      }
    }
    PROPSIM_CHECK(false && "unreachable");
    return 0.0;
  };

  // --- Protocol engines on the simulated clock. ---
  std::unique_ptr<PropEngine> prop;
  std::unique_ptr<LtmEngine> ltm;
  switch (spec.protocol) {
    case ExperimentSpec::Protocol::kNone:
      break;
    case ExperimentSpec::Protocol::kPropG:
    case ExperimentSpec::Protocol::kPropO:
      prop = std::make_unique<PropEngine>(*net, sim, spec.prop,
                                          spec.seed + 101);
      if (faults) prop->set_faults(faults.get());
      if (adversary) prop->set_adversary(adversary.get());
      break;
    case ExperimentSpec::Protocol::kLtm:
      ltm = std::make_unique<LtmEngine>(*net, sim, spec.ltm, spec.seed + 103);
      break;
  }

  std::unique_ptr<ChurnProcess> churn;
  if (has_churn || fault_crashes_on) {
    // Injected crashes reuse the churn failure path (node_left, survivor
    // repair, component stitching); with all-zero rates start() schedules
    // no Poisson arrivals, so a crash-only run pays nothing extra.
    churn = std::make_unique<ChurnProcess>(*net, sim, prop.get(), gcfg,
                                           spec.churn, spares,
                                           spec.seed + 107);
    if (faults) churn->set_faults(faults.get());
    if (fault_crashes_on) {
      faults->set_failure_executor(churn.get());
    }
  }

  // Optional event-driven lookup traffic experiencing the live overlay.
  std::unique_ptr<LookupTrafficProcess> traffic;
  if (spec.lookup_rate_per_s > 0.0) {
    LookupTrafficParams tparams;
    tparams.rate_per_s = spec.lookup_rate_per_s;
    tparams.start_s = 0.0;
    tparams.end_s = spec.horizon_s;
    tparams.window_s = spec.sample_interval_s;
    auto resolve = [&, spec](const QueryPair& q) -> double {
      std::vector<double> proc;
      const std::vector<double>* proc_ptr = nullptr;
      if (delays) {
        proc = delays->slot_delays(*net);
        proc_ptr = &proc;
      }
      // Event-driven lookups are the only routed queries traced per hop;
      // the 10k-query metric snapshots stay untraced so sampling does
      // not dominate the event stream.
      auto routed = [&](const std::vector<SlotId>& path) -> double {
        if (obs::EventBus* tb = net->trace()) {
          for (std::size_t i = 1; i < path.size(); ++i) {
            tb->emit(obs::TraceEventKind::kLookupHop, path[i - 1], path[i],
                     net->slot_latency(path[i - 1], path[i]));
          }
        }
        return path_latency(*net, path, proc_ptr);
      };
      switch (spec.overlay) {
        case ExperimentSpec::Overlay::kGnutella: {
          flood_snapshot(lookup_cache.at(topology_version()), q.src,
                         proc_ptr, lookup_scratch, q.dst);
          const double ms = lookup_scratch.distance(q.dst);
          // Lookups land between sampler ticks, so this cross-check
          // catches an overlay mutation the version failed to witness.
          if (paranoid_checks_enabled()) {
            const double live_ms = net->flood_latencies_into(
                live_scratch, q.src, proc_ptr,
                flood_filter ? &flood_filter : nullptr)[q.dst];
            PROPSIM_CHECK(std::bit_cast<std::uint64_t>(ms) ==
                              std::bit_cast<std::uint64_t>(live_ms) &&
                          "cached lookup snapshot is stale");
          }
          return ms;
        }
        case ExperimentSpec::Overlay::kChord:
          return routed(chord->lookup_path(q.src, chord->id_of(q.dst)));
        case ExperimentSpec::Overlay::kPastry:
          return routed(pastry->lookup_path(q.src, pastry->id_of(q.dst)));
        case ExperimentSpec::Overlay::kTapestry:
          return routed(
              tapestry->lookup_path(q.src, tapestry->id_of(q.dst)));
        case ExperimentSpec::Overlay::kCan:
          return routed(can->route_path(q.src, can->zone(q.dst).center()));
      }
      PROPSIM_CHECK(false && "unreachable");
      return 0.0;
    };
    traffic = std::make_unique<LookupTrafficProcess>(
        *net, sim, tparams, resolve, spec.seed + 109);
  }

  // Paranoid builds re-lint the live overlay as it runs (no-op
  // otherwise). Degree conservation and partition closure assume stable
  // membership, and LTM rewires degrees by design, so both disengage
  // there; the fault-era rules activate exactly when their engines do.
  if (paranoid_checks_enabled()) {
    install_paranoid_audit(sim, *net, /*every_n_events=*/4096,
                           /*churn_expected=*/membership_changes ||
                               ltm != nullptr,
                           ParanoidAuditHooks{faults.get(), prop.get()});
  }

  ConvergenceSampler sampler(
      sim, 0.0, spec.horizon_s, spec.sample_interval_s, prepare,
      {ConvergenceSampler::NamedMetric{result.metric_name, metric}});
  if (faults) faults->start();
  if (traffic) traffic->start();
  if (prop) prop->start();
  if (ltm) ltm->start();
  if (churn) churn->start();
  sim.run_until(spec.horizon_s);

  result.series = sampler.take_series();
  result.initial_value = result.series.first_value();
  result.final_value = result.series.last_value();
  if (prop) {
    result.exchanges = prop->stats().exchanges;
    result.attempts = prop->stats().attempts;
    result.commit_conflicts = prop->stats().commit_conflicts;
    result.timeouts = prop->stats().timeouts;
    result.retries = prop->stats().retries;
    result.aborted_mid_commit = prop->stats().aborted_mid_commit;
  }
  if (faults) {
    result.fault_messages = faults->stats().messages;
    result.fault_losses = faults->stats().losses;
    result.fault_partition_drops = faults->stats().partition_drops;
    result.fault_crashes = faults->stats().crashes_executed;
    result.fault_storm_failures = faults->stats().storm_failures;
    result.fault_burst_losses = faults->stats().burst_losses;
  }
  if (adversary) {
    result.adversary_lies = adversary->stats().lies;
    result.adversary_drops = adversary->stats().drops;
    result.adversary_freeride_skips = adversary->stats().freeride_skips;
    result.adversary_eclipse_attempts = adversary->stats().eclipse_attempts;
    result.adversary_eclipse_captures = adversary->stats().eclipse_captures;
    result.adversary_eclipse_held = adversary->eclipse_captured();
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
  if (ltm) result.ltm_rounds = ltm->rounds();
  result.sim_events_executed = sim.executed_events();
  result.sim_events_scheduled = sim.scheduled_events();
  result.sim_events_cancelled = sim.cancelled_events();
  result.measure_exact_floods = measure.stats().exact_floods;
  result.measure_snapshot_captures = snap_cache.captures();
  result.measure_snapshot_reuses = snap_cache.reuses();
  result.control_messages = net->traffic().control_total();
  if (churn) {
    result.churn_joins = churn->joins();
    result.churn_leaves = churn->leaves();
    result.churn_failures = churn->failures();
  }
  result.connected = net->graph().active_subgraph_connected();
  result.final_population = net->size();
  result.trace = bus.summary();
  if (sink) sink->close();
  return result;
}

}  // namespace propsim
