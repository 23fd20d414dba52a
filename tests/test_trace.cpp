#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/result_json.h"
#include "common/config.h"
#include "common/json.h"
#include "fixtures.h"
#include "obs/event_bus.h"

namespace propsim {
namespace {

using testing::without_wall_ms;

ExperimentSpec must_parse(const Config& config) {
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return parsed.ok() ? parsed.spec() : ExperimentSpec{};
}

/// Small fixed-seed PROP-G run; horizon crosses the warm-up boundary
/// (init_timer * max_init_trial = 100 s) so both phases see events.
Config golden_config(const std::string& extra) {
  return Config::parse(
      "nodes = 64\nhorizon = 400\nsample_interval = 100\n"
      "queries = 300\ninit_timer = 10\nseed = 20070901\n" +
      extra);
}

std::vector<Json> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<Json> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string error;
    const auto parsed = Json::parse(line, &error);
    EXPECT_TRUE(parsed.has_value()) << error << "\nline: " << line;
    if (parsed) lines.push_back(*parsed);
  }
  return lines;
}

// ------------------------------------------------------------ EventBus --

TEST(EventBus, CountsByPhaseAndKind) {
  obs::EventBus bus;
  double now = 0.0;
  bus.set_clock([&now] { return now; });
  bus.set_phase_boundary(100.0);
  bus.emit(obs::TraceEventKind::kProbe, 1);
  now = 99.0;
  bus.emit(obs::TraceEventKind::kExchangeCommit, 1, 2, 0.5);
  now = 100.0;  // boundary itself is maintenance
  bus.emit(obs::TraceEventKind::kExchangeCommit, 3, 4, 0.7);
  now = 250.0;
  bus.emit(obs::TraceEventKind::kLeave, 3);

  EXPECT_EQ(bus.total_events(), 4u);
  EXPECT_EQ(bus.count(obs::TracePhase::kWarmup,
                      obs::TraceEventKind::kExchangeCommit),
            1u);
  EXPECT_EQ(bus.count(obs::TracePhase::kMaintenance,
                      obs::TraceEventKind::kExchangeCommit),
            1u);
  EXPECT_EQ(bus.count(obs::TraceEventKind::kExchangeCommit), 2u);
  EXPECT_EQ(bus.count(obs::TracePhase::kWarmup, obs::TraceEventKind::kProbe),
            1u);
  EXPECT_EQ(bus.count(obs::TracePhase::kMaintenance,
                      obs::TraceEventKind::kLeave),
            1u);

  const obs::TraceSummary s = bus.summary();
  EXPECT_EQ(s.events, 4u);
  EXPECT_EQ(s.events_by_phase[0], 2u);
  EXPECT_EQ(s.events_by_phase[1], 2u);
  EXPECT_DOUBLE_EQ(s.phase_boundary_s, 100.0);
  EXPECT_GE(s.warmup_wall_ms, 0.0);
  EXPECT_GE(s.maintenance_wall_ms, 0.0);
}

TEST(EventBus, NoClockStampsZero) {
  obs::EventBus bus;
  bus.set_phase_boundary(10.0);
  bus.emit(obs::TraceEventKind::kJoin, 7);
  // Time 0 < boundary => warm-up.
  EXPECT_EQ(bus.count(obs::TracePhase::kWarmup, obs::TraceEventKind::kJoin),
            1u);
}

// ----------------------------------------------------------- TraceSink --

TEST(TraceSink, StreamsSchemaValidJsonl) {
  const std::string path = ::testing::TempDir() + "trace_sink_unit.jsonl";
  {
    obs::TraceSink sink(path, /*buffer_events=*/3);  // force wrap flushes
    ASSERT_TRUE(sink.ok());
    obs::EventBus bus;
    double now = 0.0;
    bus.set_clock([&now] { return now; });
    bus.set_phase_boundary(5.0);
    bus.attach_sink(&sink);
    for (int i = 0; i < 10; ++i) {
      now = static_cast<double>(i);
      bus.emit(obs::TraceEventKind::kWalkHop, static_cast<std::uint32_t>(i),
               static_cast<std::uint32_t>(i + 1), 1.5 * i,
               static_cast<std::uint64_t>(i));
    }
    bus.finalize();
    EXPECT_EQ(sink.events_written(), 10u);
    sink.close();
  }
  const std::vector<Json> lines = read_jsonl(path);
  ASSERT_GE(lines.size(), 1u);
  // Header: schema, version, vocabulary.
  const Json& header = lines[0];
  EXPECT_EQ(header.find("schema")->as_string(), "propsim.trace");
  EXPECT_EQ(header.find("version")->as_double(), obs::TraceSink::kSchemaVersion);
  EXPECT_DOUBLE_EQ(header.find("phase_boundary_s")->as_double(), 5.0);
  EXPECT_EQ(header.find("kinds")->array_items().size(),
            obs::kTraceEventKindCount);
  ASSERT_EQ(lines.size(), 11u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const Json& e = lines[i];
    EXPECT_EQ(e.find("kind")->as_string(), "walk-hop");
    const double t = e.find("t")->as_double();
    EXPECT_EQ(e.find("phase")->as_string(),
              t < 5.0 ? "warmup" : "maintenance");
    EXPECT_DOUBLE_EQ(e.find("value")->as_double(), 1.5 * t);
  }
  std::remove(path.c_str());
}

TEST(TraceSink, HasSinkFollowsAttachment) {
  const std::string path = ::testing::TempDir() + "trace_has_sink.jsonl";
  {
    obs::TraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    obs::EventBus bus;
    EXPECT_FALSE(bus.has_sink());
    bus.attach_sink(&sink);
    EXPECT_TRUE(bus.has_sink());
    bus.attach_sink(nullptr);
    EXPECT_FALSE(bus.has_sink());
  }
  std::remove(path.c_str());
}

TEST(TraceSink, ReportsUnopenablePath) {
  obs::TraceSink sink("/nonexistent-dir/propsim-trace.jsonl");
  EXPECT_FALSE(sink.ok());
}

// ------------------------------------------------------- Spec parsing ---

TEST(TraceSpec, TraceBufferIsAnUnknownKey) {
  // The sink's ring size is fixed; the retired key is rejected like any
  // other unknown key, with or without a trace path.
  for (const std::string extra : {"", "trace = /tmp/x.jsonl\n"}) {
    const SpecResult r = ExperimentSpec::from_config(
        Config::parse(extra + "trace_buffer = 64\n"));
    ASSERT_EQ(r.errors.size(), 1u) << r.error_report();
    EXPECT_EQ(r.errors[0].key, "trace_buffer");
    EXPECT_EQ(r.errors[0].message, "unknown config key");
  }
}

TEST(TraceSpec, TraceKeyIsAccepted) {
  const SpecResult r = ExperimentSpec::from_config(
      golden_config("trace = /tmp/x.jsonl\n"));
  EXPECT_TRUE(r.ok()) << r.error_report();
}

// ----------------------------------------------- Golden experiment run --

TEST(TraceGolden, FixedSeedRunEmitsSchemaValidStream) {
  const std::string path = ::testing::TempDir() + "trace_golden.jsonl";
  const auto spec = must_parse(golden_config("trace = " + path + "\n"));
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.exchanges, 0u);
  EXPECT_EQ(result.trace.sink_path, path);
  EXPECT_EQ(result.trace.sink_events, result.trace.events);

  const std::vector<Json> lines = read_jsonl(path);
  ASSERT_EQ(lines.size(), result.trace.events + 1);  // header + events
  EXPECT_EQ(lines[0].find("schema")->as_string(), "propsim.trace");

  // Both phases are populated (boundary 100 s inside the 400 s horizon),
  // events are time-ordered within the simulation, and the streamed
  // exchange-commit count equals the protocol counter.
  // With a sink attached every walk hop carries its link's latency
  // (positive between distinct hosts); only sinkless buses skip it.
  std::uint64_t commits = 0;
  std::uint64_t warmup = 0;
  std::uint64_t walk_hops = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const Json& e = lines[i];
    const double t = e.find("t")->as_double();
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, spec.horizon_s);
    EXPECT_EQ(e.find("phase")->as_string(),
              t < result.trace.phase_boundary_s ? "warmup" : "maintenance");
    if (e.find("kind")->as_string() == "exchange-commit") ++commits;
    if (e.find("kind")->as_string() == "walk-hop") {
      ++walk_hops;
      EXPECT_GT(e.find("value")->as_double(), 0.0) << "line " << i;
    }
    if (e.find("phase")->as_string() == "warmup") ++warmup;
  }
  EXPECT_EQ(commits, result.exchanges);
  EXPECT_EQ(commits, result.trace.count(obs::TraceEventKind::kExchangeCommit));
  EXPECT_EQ(walk_hops, result.trace.count(obs::TraceEventKind::kWalkHop));
  EXPECT_GT(walk_hops, 0u);
  EXPECT_EQ(warmup, result.trace.events_by_phase[0]);
  EXPECT_GT(warmup, 0u);
  EXPECT_GT(result.trace.events_by_phase[1], 0u);

  // counters() v2 exposes the same number.
  bool found = false;
  for (const auto& [name, value] : result.counters()) {
    if (name == "maintenance_exchanges" || name == "warmup_exchanges") {
      found = true;
    }
    if (name == "exchange_aborts") {
      EXPECT_EQ(value,
                result.trace.count(obs::TraceEventKind::kExchangeAbort));
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

/// A run's whole result JSON without its wall-clock lines and without
/// the trace.sink stanza, which only a run with a sink has.
std::string result_without_sink(const ExperimentSpec& spec) {
  Json out = experiment_result_json(spec, run_experiment(spec));
  Json trace = Json::object();
  for (const auto& [key, value] : out.find("trace")->object_items()) {
    if (key != "sink") trace.set(key, value);
  }
  out.set("trace", std::move(trace));
  return without_wall_ms(out.dump(2));
}

TEST(TraceGolden, SinkAttachmentDoesNotPerturbResults) {
  // The sink only serializes what the bus already counts: every result
  // field, bus counters included, is identical with and without it.
  const std::string path = ::testing::TempDir() + "trace_identical.jsonl";
  const std::string plain = result_without_sink(must_parse(golden_config("")));
  const std::string traced =
      result_without_sink(must_parse(golden_config("trace = " + path + "\n")));
  std::remove(path.c_str());
  EXPECT_NE(plain.find("\"walk-hop\""), std::string::npos);
  EXPECT_EQ(plain, traced);
}

/// FNV-1a 64 of every line of a trace file, as 16 hex digits. Each line
/// is re-serialized without its wall-clock fields (keys containing
/// "wall"), so only simulated content reaches the digest.
std::string trace_digest(const std::string& path) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Json& line : read_jsonl(path)) {
    Json kept = Json::object();
    for (const auto& [key, value] : line.object_items()) {
      if (key.find("wall") == std::string::npos) kept.set(key, value);
    }
    for (const unsigned char c : kept.dump() + "\n") {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// The event stream of each PROP negotiation mode, pinned byte for byte:
// event order, abort reasons and event values, which result digests do
// not cover. A refactor of the negotiation path leaves these constants
// untouched; a deliberate behaviour change re-records them and says why.
TEST(TraceGolden, NegotiationModesStreamPinned) {
  struct Case {
    const char* name;
    const char* file;  // committed config, or null for golden_config
    const char* overrides;
    const char* digest;
  };
  const Case cases[] = {
      {"atomic PROP-G", nullptr, "", "49c04fa544208bcc"},
      {"delayed PROP-O", nullptr,
       "protocol = prop-o\nmodel_message_delays = true\n",
       "07b0a7ddf31f68d5"},
      {"two-phase under loss", "faults_loss5.conf",
       "nodes = 200\nhorizon = 1800\nqueries = 1000\n", "824537f95f624b03"},
      {"two-phase with byzantine peers", "adversary_liars.conf",
       "nodes = 200\nhorizon = 1800\nqueries = 1000\n", "a592c06e44f5e1b0"},
  };
  const std::string path = ::testing::TempDir() + "trace_mode.jsonl";
  for (const Case& c : cases) {
    Config config =
        c.file == nullptr
            ? golden_config("")
            : Config::load_file(std::string(PROPSIM_CONFIG_DIR) + "/" + c.file);
    const Config extra = Config::parse(c.overrides);
    for (const auto& [key, value] : extra.values()) config.set(key, value);
    config.set("trace", path);
    (void)run_experiment(must_parse(config));
    EXPECT_EQ(trace_digest(path), c.digest) << c.name;
    std::remove(path.c_str());
  }
}

TEST(TraceGolden, DhtRunEmitsJoinAndLookupHops) {
  const auto spec = must_parse(Config::parse(
      "overlay = chord\nnodes = 64\nhorizon = 200\nsample_interval = 100\n"
      "queries = 100\nlookup_rate = 2\n"));
  const ExperimentResult result = run_experiment(spec);
  EXPECT_EQ(result.trace.count(obs::TraceEventKind::kJoin), 64u);
  EXPECT_GT(result.trace.count(obs::TraceEventKind::kLookupHop), 0u);
  EXPECT_EQ(result.trace.count(obs::TraceEventKind::kLookup),
            result.lookups_issued);
}

}  // namespace
}  // namespace propsim
