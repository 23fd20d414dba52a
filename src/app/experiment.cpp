#include "app/experiment.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <numeric>

#include "analysis/invariant_checker.h"
#include "app/spec_keys.h"
#include "baselines/ltm.h"
#include "can/can_space.h"
#include "chord/chord_ring.h"
#include "core/prop_engine.h"
#include "gnutella/gnutella.h"
#include "measure/measure_engine.h"
#include "measure/snapshot_cache.h"
#include "metrics/convergence.h"
#include "pastry/pastry.h"
#include "sim/scheduler.h"
#include "tapestry/tapestry.h"
#include "topology/random_graphs.h"
#include "topology/transit_stub.h"
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
      // v2: event-bus counters.
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
      // v5: measurement-engine counters, invariant across
      // measure_threads and trace sinks.
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

namespace {

using S = ExperimentSpec;

// run_experiment's stages, in the order it runs them. The order is part
// of the result: the stages share one Rng (topology, host draw, overlay,
// heterogeneity) and one event queue, which runs same-instant events in
// scheduling order.

struct World {
  std::unique_ptr<TransitStubTopology> ts;  // transit-stub topologies
  std::unique_ptr<Graph> waxman;            // otherwise
  std::unique_ptr<LatencyOracle> oracle;
  std::vector<NodeId> hosts;   // one per overlay peer
  std::vector<NodeId> spares;  // hosts for churn joins
};

/// Physical topology, latency oracle and the host draw.
World build_world(const S& spec, Rng& rng) {
  World world;
  std::vector<NodeId> pool;
  if (spec.topology == S::Topology::kWaxman) {
    world.waxman = std::make_unique<Graph>(make_waxman_graph(
        std::max<std::size_t>(4 * spec.nodes, 64), 0.25, 0.4, 200.0, 2.0, rng));
    pool.resize(world.waxman->node_count());
    std::iota(pool.begin(), pool.end(), NodeId{0});
  } else {
    world.ts = std::make_unique<TransitStubTopology>(
        make_transit_stub(transit_stub_config(spec.topology), rng));
    pool = world.ts->stub_nodes;
  }
  const std::size_t spares = churn_spares(spec);
  PROPSIM_CHECK(spec.nodes + spares <= pool.size());

  // Oracle engine: exact hierarchical tables on transit-stub graphs
  // (unless the spec forces Dijkstra rows), LRU-bounded rows elsewhere.
  LatencyOracleOptions options;
  options.max_cached_rows = spec.oracle_cache_rows;
  if (world.ts && spec.oracle_mode != S::OracleMode::kDijkstra) {
    world.oracle = std::make_unique<LatencyOracle>(*world.ts, options);
  } else {
    PROPSIM_CHECK(spec.oracle_mode != S::OracleMode::kHierarchical);
    world.oracle = std::make_unique<LatencyOracle>(
        world.ts ? world.ts->graph : *world.waxman, options);
  }

  rng.shuffle(pool);
  const auto peers_end = pool.begin() + static_cast<std::ptrdiff_t>(spec.nodes);
  world.hosts.assign(pool.begin(), peers_end);
  world.spares.assign(peers_end,
                      peers_end + static_cast<std::ptrdiff_t>(spares));
  return world;
}

/// Stamps bus events with the simulated clock, marks the PROP warm-up
/// boundary and opens the spec's trace sink, if it names one.
std::unique_ptr<obs::TraceSink> wire_trace(const S& spec, Scheduler& sim,
                                           obs::EventBus& bus) {
  bus.set_clock([&sim] { return sim.now(); });
  if (spec.protocol == S::Protocol::kPropG ||
      spec.protocol == S::Protocol::kPropO) {
    // Global warm-up approximation: each node probes at the base rate
    // for its first MAX_INIT_TRIAL trials, one trial per INIT_TIMER.
    bus.set_phase_boundary(spec.prop.init_timer_s *
                           static_cast<double>(spec.prop.max_init_trial));
  }
  if (spec.trace_path.empty()) return nullptr;
  auto sink = std::make_unique<obs::TraceSink>(spec.trace_path);
  PROPSIM_CHECK(sink->ok() && "cannot open trace output file");
  bus.attach_sink(sink.get());
  return sink;
}

/// Resolves a partition's or storm's stub domain in place: "auto" picks
/// the one hosting the most overlay peers, so the fault hits a
/// meaningful population.
void resolve_stub_domain(std::uint32_t& domain, const World& world) {
  PROPSIM_CHECK(world.ts != nullptr &&
                "stub-domain faults require a transit-stub topology");
  const TransitStubTopology& ts = *world.ts;
  if (domain == kPartitionDomainAuto) {
    std::vector<std::size_t> population(ts.stub_domain_count, 0);
    for (const NodeId h : world.hosts) {
      if (ts.kind[h] == NodeKind::kStub) ++population[ts.domain[h]];
    }
    domain = static_cast<std::uint32_t>(
        std::max_element(population.begin(), population.end()) -
        population.begin());
  }
  PROPSIM_CHECK(domain < ts.stub_domain_count);
}

/// The fault injector, only when the spec asks for faults; otherwise
/// every later stage runs byte-identically to a fault-free build (the
/// engines gate all hardened branches on its presence).
std::unique_ptr<FaultInjector> build_faults(const S& spec, const World& world,
                                            Scheduler& sim,
                                            obs::EventBus& bus) {
  if (!spec.faults.active()) return nullptr;
  FaultParams params = spec.faults;
  for (auto& w : params.partitions) resolve_stub_domain(w.stub_domain, world);
  for (auto& w : params.storms) resolve_stub_domain(w.stub_domain, world);
  auto faults = std::make_unique<FaultInjector>(sim, params, spec.seed + 131);
  faults->set_trace(&bus);
  if (const TransitStubTopology* ts = world.ts.get()) {
    std::vector<std::uint32_t> host_domain(ts->graph.node_count(),
                                           FaultInjector::kNoDomain);
    for (NodeId h = 0; h < ts->graph.node_count(); ++h) {
      if (ts->kind[h] == NodeKind::kStub) host_domain[h] = ts->domain[h];
    }
    faults->set_host_domains(std::move(host_domain));
  }
  return faults;
}

struct Substrate {
  std::unique_ptr<OverlayNetwork> net;
  std::unique_ptr<BimodalDelays> delays;  // heterogeneous runs only
  /// Structured overlays only: the slot path of a lookup from q.src to
  /// the key q.dst owns. The stretch metric and live lookups share it.
  std::function<std::vector<SlotId>(const QueryPair&)> route;
};

/// Keeps `dht` alive in `o.route`, which looks up the key the
/// destination slot owns, so each walk ends exactly there.
template <typename Dht>
const Dht& routed_by(Substrate& o, Dht dht) {
  auto shared = std::make_shared<const Dht>(std::move(dht));
  o.route = [shared](const QueryPair& q) {
    return shared->lookup_path(q.src, shared->id_of(q.dst));
  };
  return *shared;
}

/// The overlay network on the drawn hosts, plus processing delays.
Substrate build_overlay(const S& spec, const World& world, Rng& rng,
                        obs::EventBus& bus) {
  Substrate o;
  const std::vector<NodeId>& hosts = world.hosts;
  const LatencyOracle& oracle = *world.oracle;
  const std::size_t n = spec.nodes;
  OverlayNetwork net = [&] {
    switch (spec.overlay) {
      case S::Overlay::kChord:
        return make_chord_overlay(
            routed_by(o, ChordRing::build_random(n, ChordConfig{}, rng)),
            hosts, oracle, &bus);
      case S::Overlay::kPastry:
        return make_pastry_overlay(
            routed_by(o, PastryNetwork::build_random(n, rng)), hosts, oracle,
            &bus);
      case S::Overlay::kTapestry:
        return make_tapestry_overlay(
            routed_by(o, TapestryNetwork::build_random(n, rng)), hosts, oracle,
            &bus);
      case S::Overlay::kCan: {
        auto space = std::make_shared<const CanSpace>(CanSpace::build(n, rng));
        o.route = [space](const QueryPair& q) {
          return space->route_path(q.src, space->zone(q.dst).center());
        };
        return make_can_overlay(*space, hosts, oracle, &bus);
      }
      case S::Overlay::kGnutella:
        break;  // unstructured: no DHT, built below
    }
    return build_gnutella_overlay(GnutellaConfig{}, hosts, oracle, rng, &bus);
  }();
  o.net = std::make_unique<OverlayNetwork>(std::move(net));

  // Processing delays follow hosts. Every run draws the split.
  Rng hrng = rng.split();
  if (spec.heterogeneity != S::Heterogeneity::kNone) {
    o.delays = std::make_unique<BimodalDelays>(
        spec.heterogeneity == S::Heterogeneity::kBimodal
            ? make_bimodal_delays(*o.net, spec.bimodal, hrng)
            : make_bimodal_delays_by_degree(*o.net, spec.bimodal, hrng));
  }
  return o;
}

/// Churn and injected crashes change membership under the workload.
bool membership_changes(const S& spec) {
  return spec.churn.join_rate_per_s > 0.0 ||
         spec.churn.leave_rate_per_s > 0.0 ||
         spec.churn.fail_rate_per_s > 0.0 ||
         spec.faults.crash_per_negotiation > 0.0 ||
         !spec.faults.storms.empty();
}

/// Workload and measurement: the query set, the metric each sampler tick
/// takes and the latency each live lookup experiences. Structured
/// overlays route; gnutella floods: the sampler a cached snapshot, keyed
/// on the overlay's version plus the partition epoch (both rise whenever
/// a fresh capture could differ, so a reused snapshot equals a capture),
/// and each live lookup the live overlay in place, with the same kernel.
class Measurement {
 public:
  Measurement(const S& spec, const Substrate& overlay,
              const FaultInjector* faults)
      : spec_(spec),
        overlay_(overlay),
        faults_(faults),
        // measure_threads is a pure execution knob: results are
        // bit-identical to the serial path for any value, so it is not
        // echoed into the result JSON. The resolved measure_mode is; a
        // programmatic kFast reaches the engine, which rejects it.
        measure_(spec.measure_threads,
                 spec.resolved_measure_mode() == S::MeasureMode::kFast
                     ? MeasureMode::kFast
                     : MeasureMode::kExact),
        sampler_cache_([this] { return capture(); }) {
    // Without membership changes a fixed uniform query set keeps the
    // series noise-free; with them, every tick draws a fresh one.
    if (!membership_changes(spec_) && !biased()) queries_ = make_queries();
    // Floods honor partition windows: links whose hosts sit on opposite
    // sides of a cut gateway are pruned. Random per-message loss is
    // deliberately not applied — flooding is redundant enough that
    // independent edge loss rarely changes the first response, and
    // modeling it would burn RNG per edge per lookup. Without windows or
    // a host-domain map partitioned() is false for every edge, so no
    // filter is installed.
    if (faults_ != nullptr && !faults_->params().partitions.empty() &&
        !faults_->host_domains().empty()) {
      filter_ = [n = overlay_.net.get(), f = faults_](SlotId a, SlotId b) {
        return !f->partitioned(n->placement().host_of(a),
                               n->placement().host_of(b));
      };
    }
  }
  Measurement(const Measurement&) = delete;

  bool structured() const { return overlay_.route != nullptr; }
  const MeasureEngine& engine() const { return measure_; }
  const SnapshotCache& sampler_cache() const { return sampler_cache_; }

  /// One sampler tick's metric. Slot delays are re-read every tick
  /// because PROP-G moves hosts and churn rebinds slots; the flood runs
  /// on an immutable snapshot, so worker threads never touch live sim
  /// state.
  double sample() {
    if (membership_changes(spec_)) {
      queries_ = make_queries();
    } else if (biased()) {
      // PROP-G moves fast hosts across slots, so the biased set is aimed
      // at the current placement: redrawn from the seed, it is the same
      // set for as long as no host changes slot.
      qrng_ = query_rng();
      queries_ = make_queries();
    }
    const std::vector<double>* delays = slot_delays();
    const OverlayNetwork& net = *overlay_.net;
    if (structured()) {
      const auto routed = [&](const QueryPair& q) {
        return path_latency(net, overlay_.route(q), delays);
      };
      return measure_.stretch(net, queries_, routed).stretch;
    }
    const OverlaySnapshot& snap = sampler_cache_.at(version());
    if (paranoid_checks_enabled()) {
      PROPSIM_CHECK(snap == capture() && "cached sampler snapshot is stale");
    }
    return measure_.average_lookup_latency(snap, queries_, delays);
  }

  /// The latency of one live lookup on the overlay as it is now.
  double resolve_lookup(const QueryPair& q) {
    const std::vector<double>* delays = slot_delays();
    const OverlayNetwork& net = *overlay_.net;
    if (!structured()) {
      flood_overlay(net, filter(), q.src, delays, lookup_scratch_,
                    {&q.dst, 1});
      const double ms = lookup_scratch_.distance(q.dst);
      if (paranoid_checks_enabled()) {
        const double probed_ms = net.flood_latencies_into(
            probe_scratch_, q.src, delays, filter())[q.dst];
        PROPSIM_CHECK(std::bit_cast<std::uint64_t>(ms) ==
                          std::bit_cast<std::uint64_t>(probed_ms) &&
                      "live lookup disagrees with the probing flood");
      }
      return ms;
    }
    // Live lookups are the only routed queries traced per hop; the
    // metric's queries stay untraced so sampling does not dominate the
    // event stream.
    const std::vector<SlotId> path = overlay_.route(q);
    if (obs::EventBus* bus = net.trace()) {
      for (std::size_t i = 1; i < path.size(); ++i) {
        bus->emit(obs::TraceEventKind::kLookupHop, path[i - 1], path[i],
                  net.slot_latency(path[i - 1], path[i]));
      }
    }
    return path_latency(net, path, delays);
  }

 private:
  bool biased() const { return spec_.fraction_fast_dest >= 0.0; }
  Rng query_rng() const { return Rng(spec_.seed ^ 0x2545f4914f6cdd1dULL); }

  std::vector<QueryPair> make_queries() {
    const LogicalGraph& graph = overlay_.net->graph();
    if (!biased()) {
      return uniform_queries(graph, spec_.queries, qrng_);
    }
    return biased_queries(graph, overlay_.delays->slot_fast(*overlay_.net),
                          spec_.fraction_fast_dest, spec_.queries, qrng_);
  }

  /// The slots' processing delays; null when homogeneous. Delays follow
  /// hosts, so the vector is rebuilt only when the overlay's version
  /// moved (a swap, join, leave or rebind), not per lookup or tick.
  const std::vector<double>* slot_delays() {
    if (!overlay_.delays) return nullptr;
    if (delays_version_ != overlay_.net->version()) {
      delays_ = overlay_.delays->slot_delays(*overlay_.net);
      delays_version_ = overlay_.net->version();
    }
    return &delays_;
  }

  const OverlayNetwork::LinkFilter* filter() const {
    return filter_ ? &filter_ : nullptr;
  }
  OverlaySnapshot capture() const {
    return OverlaySnapshot::capture(*overlay_.net, filter());
  }
  std::uint64_t version() const {
    return overlay_.net->version() +
           (faults_ != nullptr ? faults_->partition_epoch() : 0);
  }

  const S& spec_;
  const Substrate& overlay_;
  const FaultInjector* faults_;
  MeasureEngine measure_;
  SnapshotCache sampler_cache_;
  Rng qrng_ = query_rng();
  std::vector<QueryPair> queries_;
  OverlayNetwork::LinkFilter filter_;
  std::vector<double> delays_;  // slot_delays() as of delays_version_
  std::uint64_t delays_version_ = kNoStamp;
  MeasureScratch lookup_scratch_;
  OverlayNetwork::FloodScratch probe_scratch_;  // paranoid cross-check only
};

struct Engines {
  std::unique_ptr<AdversaryLayer> adversary;
  std::unique_ptr<PropEngine> prop;
  std::unique_ptr<LtmEngine> ltm;
  std::unique_ptr<ChurnProcess> churn;
  std::unique_ptr<LookupTrafficProcess> traffic;
};

/// The protocol, churn and lookup-traffic engines on the simulated clock.
Engines build_engines(const S& spec, const World& world, OverlayNetwork& net,
                      FaultInjector* faults, Measurement& measurement,
                      Scheduler& sim, obs::EventBus& bus) {
  Engines e;
  // Storm victims are enumerated at the storm's fire time so churn-era
  // membership is honored: every slot active at that instant whose host
  // is a stub node of the failed domain goes down, in active-slot order —
  // no RNG involved.
  if (faults && !spec.faults.storms.empty()) {
    faults->set_storm_enumerator([n = &net, f = faults](std::uint32_t domain) {
      const std::vector<std::uint32_t>& host_domain = f->host_domains();
      std::vector<SlotId> victims;
      for (const SlotId s : n->graph().active_slots()) {
        const NodeId h = n->placement().host_of(s);
        if (h < host_domain.size() && host_domain[h] == domain) {
          victims.push_back(s);
        }
      }
      return victims;
    });
  }
  // The Byzantine layer exists only when a model fraction is nonzero; the
  // engines gate every adversarial branch on its presence, so an honest
  // spec runs byte-identically to a build without the layer.
  if (spec.adversary.active()) {
    e.adversary =
        std::make_unique<AdversaryLayer>(net, spec.adversary, spec.seed);
    e.adversary->set_trace(&bus);
  }
  if (spec.protocol == S::Protocol::kPropG ||
      spec.protocol == S::Protocol::kPropO) {
    e.prop = std::make_unique<PropEngine>(net, sim, spec.prop, spec.seed + 101);
    if (faults) e.prop->set_faults(faults);
    if (e.adversary) e.prop->set_adversary(e.adversary.get());
  } else if (spec.protocol == S::Protocol::kLtm) {
    e.ltm = std::make_unique<LtmEngine>(net, sim, spec.prop.init_timer_s,
                                        spec.seed + 103);
  }
  if (membership_changes(spec)) {
    // Injected crashes and storms reuse the churn failure path
    // (node_left, survivor repair, component stitching); with all-zero
    // rates start() schedules no arrivals, so a crash-only run pays
    // nothing extra.
    e.churn = std::make_unique<ChurnProcess>(net, sim, e.prop.get(),
                                             GnutellaConfig{}, spec.churn,
                                             world.spares, spec.seed + 107);
    if (faults) {
      e.churn->set_faults(faults);
      faults->set_failure_executor(e.churn.get());
    }
  }
  if (spec.lookup_rate_per_s > 0.0) {
    const LookupTrafficParams tparams{.rate_per_s = spec.lookup_rate_per_s,
                                      .start_s = 0.0,
                                      .end_s = spec.horizon_s,
                                      .window_s = spec.sample_interval_s};
    e.traffic = std::make_unique<LookupTrafficProcess>(
        net, sim, tparams,
        [&measurement](const QueryPair& q) {
          return measurement.resolve_lookup(q);
        },
        spec.seed + 109);
  }
  return e;
}

/// Arms the audits and the sampler, starts every engine and runs to the
/// horizon; returns the sampled metric series.
TimeSeries run(const S& spec, Scheduler& sim, const OverlayNetwork& net,
               FaultInjector* faults, const Engines& e,
               Measurement& measurement) {
  // Paranoid builds re-lint the live overlay as it runs (no-op
  // otherwise). Degree conservation and partition closure assume stable
  // membership, and LTM rewires degrees by design, so both disengage
  // there; the fault-era rules activate exactly when their engines do.
  if (paranoid_checks_enabled()) {
    install_paranoid_audit(
        sim, net, /*every_n_events=*/4096,
        /*churn_expected=*/membership_changes(spec) || e.ltm != nullptr,
        ParanoidAuditHooks{faults, e.prop.get()});
  }
  ConvergenceSampler sampler(
      sim, measurement.structured() ? "stretch" : "lookup_ms", 0.0,
      spec.horizon_s, spec.sample_interval_s,
      [&measurement] { return measurement.sample(); });
  if (faults) faults->start();
  if (e.traffic) e.traffic->start();
  if (e.prop) e.prop->start();
  if (e.ltm) e.ltm->start();
  if (e.churn) e.churn->start();
  sim.run_until(spec.horizon_s);
  return sampler.take_series();
}

ExperimentResult report(TimeSeries series, const Scheduler& sim,
                        obs::EventBus& bus, const OverlayNetwork& net,
                        const FaultInjector* faults, const Engines& e,
                        const Measurement& measurement) {
  ExperimentResult r;
  r.metric_name = series.name();
  r.series = std::move(series);
  r.initial_value = r.series.first_value();
  r.final_value = r.series.last_value();
  if (e.prop) {
    r.exchanges = e.prop->stats().exchanges;
    r.attempts = e.prop->stats().attempts;
    r.commit_conflicts = e.prop->stats().commit_conflicts;
    r.timeouts = e.prop->stats().timeouts;
    r.retries = e.prop->stats().retries;
    r.aborted_mid_commit = e.prop->stats().aborted_mid_commit;
  }
  if (faults) {
    r.fault_messages = faults->stats().messages;
    r.fault_losses = faults->stats().losses;
    r.fault_partition_drops = faults->stats().partition_drops;
    r.fault_crashes = faults->stats().crashes_executed;
    r.fault_storm_failures = faults->stats().storm_failures;
    r.fault_burst_losses = faults->stats().burst_losses;
  }
  if (e.adversary) {
    r.adversary_lies = e.adversary->stats().lies;
    r.adversary_drops = e.adversary->stats().drops;
    r.adversary_freeride_skips = e.adversary->stats().freeride_skips;
    r.adversary_eclipse_attempts = e.adversary->stats().eclipse_attempts;
    r.adversary_eclipse_captures = e.adversary->stats().eclipse_captures;
    r.adversary_eclipse_held = e.adversary->eclipse_captured();
  }
  if (e.traffic) {
    r.observed = e.traffic->observed();
    r.lookups_issued = e.traffic->issued();
    r.lookups_unreachable = e.traffic->unreachable();
    if (!e.traffic->latencies().empty()) {
      r.observed_p50_ms = e.traffic->latencies().median();
      r.observed_p95_ms = e.traffic->latencies().quantile(0.95);
    }
  }
  if (e.ltm) r.ltm_rounds = e.ltm->rounds();
  if (e.churn) {
    r.churn_joins = e.churn->joins();
    r.churn_leaves = e.churn->leaves();
    r.churn_failures = e.churn->failures();
  }
  r.sim_events_executed = sim.executed_events();
  r.sim_events_scheduled = sim.scheduled_events();
  r.sim_events_cancelled = sim.cancelled_events();
  r.measure_exact_floods = measurement.engine().stats().exact_floods;
  r.measure_snapshot_captures = measurement.sampler_cache().captures();
  r.measure_snapshot_reuses = measurement.sampler_cache().reuses();
  r.control_messages = net.traffic().control_total();
  r.connected = net.graph().active_subgraph_connected();
  r.final_population = net.size();
  r.trace = bus.summary();
  return r;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  Rng rng(spec.seed);
  const World world = build_world(spec, rng);
  // The clock and bus exist before the overlay, so build-time join
  // events are stamped (at t = 0) and every engine reaches the bus
  // through the overlay. Every run has a bus: its counters never touch
  // the RNG or the event queue, so a trace sink changes no result.
  Scheduler sim;
  obs::EventBus bus;
  const std::unique_ptr<obs::TraceSink> sink = wire_trace(spec, sim, bus);
  const std::unique_ptr<FaultInjector> faults =
      build_faults(spec, world, sim, bus);
  const Substrate overlay = build_overlay(spec, world, rng, bus);
  OverlayNetwork& net = *overlay.net;
  Measurement measurement(spec, overlay, faults.get());
  const Engines engines = build_engines(spec, world, net, faults.get(),
                                        measurement, sim, bus);
  TimeSeries series = run(spec, sim, net, faults.get(), engines, measurement);
  ExperimentResult result = report(std::move(series), sim, bus, net,
                                   faults.get(), engines, measurement);
  if (sink) sink->close();
  return result;
}

}  // namespace propsim
