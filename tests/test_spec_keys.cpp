// The spec key table: README holds the same keys, enum vocabularies
// match to_string, inputs that used to abort are spec errors, and a
// fixed-seed fuzzer over the table — every case is either rejected with
// issues or runs to completion, never aborts (an abort kills this
// binary, which fails the ctest).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/spec_keys.h"
#include "common/config.h"
#include "common/rng.h"

namespace propsim {
namespace {

// ------------------------------------------------------ README table ----

/// The backticked names in the first column of README's `| key | values |`
/// table.
std::set<std::string> readme_keys() {
  std::ifstream in(PROPSIM_README);
  EXPECT_TRUE(in.good()) << PROPSIM_README;
  std::set<std::string> keys;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("| key | values |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.rfind("|", 0) != 0) break;
    // Every `name` in the first column.
    const std::string first = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = first.find('`'); open != std::string::npos;) {
      const std::size_t close = first.find('`', open + 1);
      if (close == std::string::npos) break;
      keys.insert(first.substr(open + 1, close - open - 1));
      open = first.find('`', close + 1);
    }
  }
  return keys;
}

TEST(SpecKeys, ReadmeKeyTableMatchesTheTable) {
  const std::set<std::string> readme = readme_keys();
  ASSERT_FALSE(readme.empty()) << "no `| key | values |` table in README";
  std::set<std::string> table;
  for (const SpecKey& k : spec_keys()) table.insert(k.name);
  for (const std::string& key : table) {
    EXPECT_TRUE(readme.contains(key)) << key << " is missing from README";
  }
  for (const std::string& key : readme) {
    EXPECT_TRUE(table.contains(key)) << key << " in README is not a key";
  }
}

TEST(SpecKeys, NamesAreUniqueAndDocumented) {
  std::set<std::string> seen;
  for (const SpecKey& k : spec_keys()) {
    EXPECT_TRUE(seen.insert(k.name).second) << k.name;
    EXPECT_NE(std::string(k.doc), "") << k.name;
    EXPECT_EQ(k.choices.empty(), k.type != SpecKey::Type::kEnum) << k.name;
  }
}

TEST(SpecKeys, EnumVocabulariesMatchToString) {
  // The setter maps a choice's index to the enumerator; the result must
  // print back as the same word.
  auto spelled = [](const std::string& key, const std::string& value) {
    const SpecResult r =
        ExperimentSpec::from_config(Config::parse(key + " = " + value));
    EXPECT_TRUE(r.ok()) << r.error_report();
    const ExperimentSpec s = r.ok() ? r.spec() : ExperimentSpec{};
    if (key == "topology") return std::string(to_string(s.topology));
    if (key == "overlay") return std::string(to_string(s.overlay));
    if (key == "protocol") return std::string(to_string(s.protocol));
    if (key == "heterogeneity") return std::string(to_string(s.heterogeneity));
    if (key == "oracle") return std::string(to_string(s.oracle_mode));
    if (key == "measure_mode") return std::string(to_string(s.measure_mode));
    return value;  // selection has no to_string
  };
  // On the default config every choice is valid on its own.
  for (const SpecKey& k : spec_keys()) {
    for (const char* choice : k.choices) {
      EXPECT_EQ(spelled(k.name, choice), choice) << k.name;
    }
  }
}

TEST(SpecKeys, ValuesThatUsedToAbortAreSpecErrors) {
  // Each used to abort (or wrap silently) once run; now the key is named.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"init_timer = 0", "init_timer"},
      {"init_timer = -5", "init_timer"},
      {"horizon = nan", "horizon"},
      {"heterogeneity = bimodal\nfast_fraction = 2", "fast_fraction"},
      {"churn_join_rate = 0.1\nchurn_start = 50\nchurn_end = 10",
       "churn_end"},
      {"queries = 99999999999", "queries"},
      {"nhops = -1", "nhops"},
      {"m = -1", "m"},
      {"max_init_trial = -1", "max_init_trial"},
      {"churn_join_rate = -1", "churn_join_rate"},
      {"nhops = 0", "nhops"},
      {"nhops = 1000000", "nhops"},
      {"churn_start = -1", "churn_start"},
      {"fault_partition_domain = 9999\nfault_partition_start = 10\n"
       "fault_partition_end = 20",
       "fault_partition_domain"},
      {"fault_storm_domain = 9999\nfault_storm_start = 10\n"
       "fault_storm_window = 20",
       "fault_storm_domain"},
      {"adversary_eclipse_fraction = 0.1\nadversary_eclipse_target = 5000",
       "adversary_eclipse_target"},
      {"measure_threads = 100000", "measure_threads"},
      {"seed = 99999999999999999999", "seed"},
      {"init_timer = 1e-320", "init_timer"},
      {"sample_interval = 1e-300", "sample_interval"},
  };
  for (const auto& [text, key] : cases) {
    const SpecResult r = ExperimentSpec::from_config(
        Config::parse("nodes = 50\nhorizon = 300\n" + text));
    ASSERT_FALSE(r.ok()) << text;
    bool named = false;
    for (const SpecIssue& issue : r.errors) named = named || issue.key == key;
    EXPECT_TRUE(named) << text << "\n" << r.error_report();
  }
}

// horizon / init_timer and horizon / sample_interval are bounded at 1e6
// timer intervals and 1e4 samples: the bound itself is accepted, the next
// step past it is not, and a run without a protocol has no timers.
TEST(SpecKeys, TimerAndSampleBoundsAdmitTheirEdge) {
  auto ok = [](const std::string& text) {
    return ExperimentSpec::from_config(Config::parse("nodes = 50\n" + text))
        .ok();
  };
  EXPECT_TRUE(ok("horizon = 1000000\ninit_timer = 1\nsample_interval = 1000"));
  EXPECT_FALSE(ok("horizon = 1000001\ninit_timer = 1\nsample_interval = 1000"));
  EXPECT_TRUE(ok("protocol = none\nhorizon = 1000001\ninit_timer = 1\n"
                 "sample_interval = 1000"));
  EXPECT_TRUE(ok("horizon = 10000\nsample_interval = 1"));
  EXPECT_FALSE(ok("horizon = 10000\nsample_interval = 0.999"));
}

TEST(SpecKeys, UnknownKeysGetTheClosestKeyOrNone) {
  Config config;
  config.set("", "5");  // `propsim_cli =5`
  config.set("init_timr", "5");
  config.set("completely_unrelated_name", "5");
  const SpecResult r = ExperimentSpec::from_config(config);
  ASSERT_EQ(r.errors.size(), 3u) << r.error_report();
  for (const SpecIssue& issue : r.errors) {
    EXPECT_EQ(issue.message, "unknown config key");
    EXPECT_EQ(issue.hint, issue.key == "init_timr"
                              ? "did you mean 'init_timer'?"
                              : "see README for the key table")
        << issue.key;
  }
}

TEST(SpecKeys, StubDomainIndicesStopAtThePresetsCount) {
  using Topology = ExperimentSpec::Topology;
  for (const Topology topology : {Topology::kTsLarge, Topology::kTsSmall}) {
    const std::size_t count = transit_stub_config(topology).stub_domains();
    for (const std::string p : {"fault_partition", "fault_storm"}) {
      const std::string window = p == "fault_storm" ? "_window" : "_end";
      auto parse = [&](std::size_t domain) {
        return ExperimentSpec::from_config(Config::parse(
            std::string("topology = ") + to_string(topology) + "\n" + p +
            "_domain = " + std::to_string(domain) + "\n" + p +
            "_start = 10\n" + p + window + " = 20\n"));
      };
      EXPECT_TRUE(parse(count - 1).ok()) << to_string(topology) << " " << p;
      EXPECT_FALSE(parse(count).ok()) << to_string(topology) << " " << p;
    }
  }
}

// ------------------------------------------------------------- fuzzer ----

/// A tiny run: a few ms to a few tens of ms.
const std::string kTinyBase =
    "nodes = 16\nhorizon = 120\nsample_interval = 60\nqueries = 40\n";

/// Every subsystem on, so a fuzzed value reaches its consumer.
const std::string kRichBase =
    kTinyBase +
    "init_timer = 10\nmodel_message_delays = true\n"
    "heterogeneity = bimodal\nfraction_fast_dest = 0.5\nlookup_rate = 0.2\n"
    "churn_join_rate = 0.02\nchurn_leave_rate = 0.02\n"
    "churn_fail_rate = 0.01\nchurn_start = 5\n"
    "fault_loss = 0.1\nfault_jitter = 0.1\nfault_crash = 0.05\n"
    "fault_loss_burst_len = 3\n"
    "fault_partition_domain = auto\nfault_partition_start = 10\n"
    "fault_partition_end = 60\n"
    "fault_storm_domain = auto\nfault_storm_start = 30\n"
    "fault_storm_window = 20\n"
    "adversary_liar_fraction = 0.1\nadversary_eclipse_fraction = 0.1\n"
    "adversary_eclipse_target = auto\n";

/// Keys that scale a run's cost: fuzzed only with these accepted values
/// (out-of-range and malformed values are still tried).
const std::vector<std::pair<std::string, std::set<std::string>>> kSizeKeys =
    {{"nodes", {"8", "12", "16"}},
     {"horizon", {"60", "120"}},
     {"sample_interval", {"30", "60"}},
     {"queries", {"1", "40"}},
     {"lookup_rate", {"0", "0.2", "1"}},
     {"churn_join_rate", {"0", "0.02", "0.05"}},
     {"churn_leave_rate", {"0", "0.02", "0.05"}},
     {"churn_fail_rate", {"0", "0.01", "0.05"}}};

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Boundary, just-out-of-range, non-finite, negative, huge and
/// non-numeric values for one key.
std::vector<std::string> fuzz_values(const SpecKey& k) {
  std::vector<std::string> out = {"",    "garbage", "nan", "inf",
                                  "-inf", "-1",     "0",   "1e300",
                                  "9223372036854775807",
                                  "99999999999999999999"};
  using T = SpecKey::Type;
  const SpecRange& r = k.range;
  switch (k.type) {
    case T::kEnum:
      for (const char* c : k.choices) out.push_back(c);
      out.push_back(std::string(k.choices.front()) + "x");
      break;
    case T::kBool:
      for (const char* b : {"true", "false", "YES", "2"}) out.push_back(b);
      break;
    case T::kText:
      out.push_back(testing::TempDir() + "spec_fuzz.trace.jsonl");
      out.push_back("/nonexistent/dir/x.jsonl");
      out.push_back(".");
      break;
    case T::kIntOrAuto:
      out.push_back("auto");
      [[fallthrough]];
    case T::kInt:
      if (std::isfinite(r.lo)) {
        out.push_back(exact(r.lo));
        out.push_back(exact(r.lo - 1));
      }
      if (std::isfinite(r.hi)) {
        out.push_back(exact(r.hi));
        out.push_back(exact(r.hi + 1));
      }
      out.push_back("1.5");
      break;
    case T::kDouble:
      if (std::isfinite(r.lo)) {
        out.push_back(exact(r.lo));
        out.push_back(exact(std::nextafter(r.lo, -INFINITY)));
      }
      if (std::isfinite(r.hi)) {
        out.push_back(exact(r.hi));
        out.push_back(exact(std::nextafter(r.hi, INFINITY)));
      }
      if (std::isfinite(r.lo) && std::isfinite(r.hi)) {
        out.push_back(exact((r.lo + r.hi) / 2));
      }
      break;
  }
  return out;
}

struct FuzzTally {
  std::size_t malformed = 0;
  std::size_t rejected = 0;
  std::size_t ran = 0;
  std::size_t skipped = 0;
};

bool oversized(const Config& config) {
  for (const auto& [key, small] : kSizeKeys) {
    if (config.has(key) && !small.contains(config.get_string(key, ""))) {
      return true;
    }
  }
  return false;
}

/// One case: malformed text, a spec rejected with issues, or a run that
/// completes. An abort anywhere ends the binary; run with SPEC_FUZZ_ECHO=1
/// to print each case first, so the last one printed is the culprit.
void run_case(const std::string& text, FuzzTally& tally) {
  if (std::getenv("SPEC_FUZZ_ECHO") != nullptr) {
    std::fprintf(stderr, "%s---\n", text.c_str());
  }
  std::string error;
  const auto config = Config::try_parse(text, error);
  if (!config) {
    EXPECT_FALSE(error.empty()) << text;
    ++tally.malformed;
    return;
  }
  const SpecResult parsed = ExperimentSpec::from_config(*config);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.error_report().empty()) << text;
    ++tally.rejected;
    return;
  }
  if (oversized(*config)) {
    ++tally.skipped;
    return;
  }
  // An accepted trace path may be any writable name; keep the files out
  // of the working directory.
  ExperimentSpec spec = parsed.spec();
  if (!spec.trace_path.empty()) {
    spec.trace_path = testing::TempDir() + "spec_fuzz.trace.jsonl";
  }
  const ExperimentResult result = run_experiment(spec);
  EXPECT_GT(result.series.size(), 0u) << text;
  ++tally.ran;
}

TEST(SpecFuzz, EveryKeyValueIsRejectedOrRuns) {
  FuzzTally tally;
  for (const std::string& base : {kTinyBase, kRichBase}) {
    for (const SpecKey& k : spec_keys()) {
      for (const std::string& value : fuzz_values(k)) {
        SCOPED_TRACE(std::string(k.name) + " = " + value);
        run_case(base + k.name + " = " + value + "\n", tally);
      }
    }
  }
  EXPECT_GT(tally.rejected, 500u);
  EXPECT_GT(tally.ran, 200u);
  std::printf("spec fuzz: %zu rejected, %zu ran, %zu oversized skipped\n",
              tally.rejected, tally.ran, tally.skipped);
}

TEST(SpecFuzz, StubPoolBoundaryIsRejectedOrRuns) {
  // build_world checks that the peers, plus churn spares when peers join,
  // fit the preset's stub hosts: the largest population the rule accepts
  // runs, and one peer more is rejected.
  using Topology = ExperimentSpec::Topology;
  for (const Topology topology : {Topology::kTsLarge, Topology::kTsSmall}) {
    const std::size_t pool = transit_stub_config(topology).stub_nodes();
    for (const bool joins : {false, true}) {
      std::size_t most = pool;
      while (most + (joins ? most / 4 : 0) > pool) --most;
      for (const std::size_t nodes : {most, most + 1}) {
        const std::string text =
            std::string("topology = ") + to_string(topology) +
            "\nprotocol = none\nhorizon = 60\nsample_interval = 60\n"
            "queries = 1\nchurn_join_rate = " + (joins ? "0.05" : "0") +
            "\nnodes = " + std::to_string(nodes) + "\n";
        SCOPED_TRACE(text);
        const SpecResult parsed =
            ExperimentSpec::from_config(Config::parse(text));
        ASSERT_EQ(parsed.ok(), nodes == most) << parsed.error_report();
        if (parsed.ok()) {
          EXPECT_GT(run_experiment(parsed.spec()).series.size(), 0u);
        }
      }
    }
  }
}

TEST(SpecFuzz, WaxmanBoundaryIsRejected) {
  // A Waxman world costs about nodes^3: the bound is accepted and one peer
  // more is rejected on nodes. The bound itself is not run here (about a
  // minute of one core); small Waxman runs are in test_app.
  for (const std::size_t nodes : {kMaxWaxmanNodes, kMaxWaxmanNodes + 1}) {
    const std::string text =
        "topology = waxman\nprotocol = none\nnodes = " +
        std::to_string(nodes) + "\n";
    SCOPED_TRACE(text);
    const SpecResult parsed = ExperimentSpec::from_config(Config::parse(text));
    if (nodes == kMaxWaxmanNodes) {
      EXPECT_TRUE(parsed.ok()) << parsed.error_report();
    } else {
      ASSERT_EQ(parsed.errors.size(), 1u) << parsed.error_report();
      EXPECT_EQ(parsed.errors[0].key, "nodes");
    }
  }
}

TEST(SpecFuzz, RandomKeyCombinationsAreRejectedOrRun) {
  // Per key: every fuzz value, and the ones the tiny base accepts alone
  // (so combinations mostly reach the joint rules and the run).
  const auto keys = spec_keys();
  std::vector<std::vector<std::string>> all;
  std::vector<std::vector<std::string>> accepted;
  for (const SpecKey& k : keys) {
    all.push_back(fuzz_values(k));
    accepted.emplace_back();
    for (const std::string& v : all.back()) {
      std::string error;
      const auto config =
          Config::try_parse(kTinyBase + k.name + " = " + v + "\n", error);
      if (config && !oversized(*config) &&
          ExperimentSpec::from_config(*config).ok()) {
        accepted.back().push_back(v);
      }
    }
  }
  Rng rng(20070901);
  FuzzTally tally;
  for (int i = 0; i < 400; ++i) {
    std::string text = rng.bernoulli(0.5) ? kRichBase : kTinyBase;
    for (int j = 0; j < 3; ++j) {
      const auto key = static_cast<std::size_t>(rng.uniform(keys.size()));
      const auto& pool = accepted[key].empty() || rng.bernoulli(0.2)
                             ? all[key]
                             : accepted[key];
      text += std::string(keys[key].name) + " = " +
              pool[static_cast<std::size_t>(rng.uniform(pool.size()))] + "\n";
    }
    SCOPED_TRACE(text);
    run_case(text, tally);
  }
  EXPECT_GT(tally.ran, 50u);
  EXPECT_GT(tally.rejected, 50u);
  std::printf("spec fuzz combos: %zu rejected, %zu ran, %zu skipped\n",
              tally.rejected, tally.ran, tally.skipped);
}

TEST(SpecFuzz, GarbageConfigTextIsRejectedOrRuns) {
  const std::string alphabet = " =#\t_.-+eainfx0123456789";
  const auto keys = spec_keys();
  Rng rng(7);
  FuzzTally tally;
  for (int i = 0; i < 400; ++i) {
    std::string line;
    const auto length = rng.uniform(24);
    for (std::uint64_t c = 0; c < length; ++c) {
      line += alphabet[static_cast<std::size_t>(rng.uniform(alphabet.size()))];
    }
    // Half the lines put the garbage behind a real key.
    if (rng.bernoulli(0.5)) {
      line = std::string(keys[rng.uniform(keys.size())].name) + " =" + line;
    }
    SCOPED_TRACE(line);
    run_case(kTinyBase + line + "\n", tally);
  }
  EXPECT_GT(tally.malformed, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

}  // namespace
}  // namespace propsim
