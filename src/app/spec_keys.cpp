#include "app/spec_keys.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/config.h"
#include "common/table.h"

namespace propsim {
namespace {

using S = ExperimentSpec;
using V = SpecValue;
using Issues = std::vector<SpecIssue>;
constexpr auto kInt = SpecKey::Type::kInt;
constexpr auto kIntOrAuto = SpecKey::Type::kIntOrAuto;
constexpr auto kDouble = SpecKey::Type::kDouble;
constexpr auto kBool = SpecKey::Type::kBool;
constexpr auto kEnum = SpecKey::Type::kEnum;
constexpr auto kText = SpecKey::Type::kText;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Ranges. A count's upper bound is what its consumer can hold.
constexpr SpecRange kAny{};
constexpr SpecRange kNonNegative{0.0};
constexpr SpecRange kPositive{0.0, kInf, true};
constexpr SpecRange kUnitOpen{0.0, 1.0, false, true};
constexpr SpecRange kUnitClosed{0.0, 1.0};
/// Waxman builds four hosts per peer, and host ids are 32-bit.
constexpr SpecRange kNodes{8.0, double((std::uint64_t{1} << 30) - 1)};
/// Stub-domain and slot indices are 32-bit; the top value means "auto".
constexpr SpecRange kIndex{0.0, double(std::uint32_t(-1) - 1)};
/// Every metric sample holds its query pairs in memory.
constexpr SpecRange kQueries{1.0, 1e7};
/// Each metric worker is an OS thread with its own flood scratch.
constexpr SpecRange kThreads{0.0, 256.0};

/// The single window a partition or storm key triple describes.
template <typename Window>
Window& first(std::vector<Window>& windows) {
  if (windows.empty()) windows.emplace_back();
  return windows.front();
}
PartitionWindow& partition(S& s) { return first(s.faults.partitions); }
StormWindow& storm(S& s) { return first(s.faults.storms); }

std::uint32_t domain(const V& v) {
  return v.is_auto ? kPartitionDomainAuto : v.as<std::uint32_t>();
}

const std::vector<SpecKey>& table() {
  static const std::vector<SpecKey> keys = {
      {"topology", kEnum, "ts-large", kAny, "physical network generator",
       [](S& s, const V& v) { s.topology = v.as<S::Topology>(); },
       {"ts-large", "ts-small", "waxman"}},
      {"overlay", kEnum, "gnutella", kAny, "overlay substrate",
       [](S& s, const V& v) { s.overlay = v.as<S::Overlay>(); },
       {"gnutella", "chord", "pastry", "tapestry", "can"}},
      {"protocol", kEnum, "prop-g", kAny, "topology-matching protocol",
       [](S& s, const V& v) { s.protocol = v.as<S::Protocol>(); },
       {"none", "prop-g", "prop-o", "ltm"}},
      {"nodes", kInt, "1000", kNodes, "overlay peers",
       [](S& s, const V& v) { s.nodes = v.as<size_t>(); }},
      {"seed", kInt, "20070901", kAny, "root of every RNG stream",
       [](S& s, const V& v) { s.seed = v.as<std::uint64_t>(); }},
      {"horizon", kDouble, "3600", kPositive, "simulated span, s",
       [](S& s, const V& v) { s.horizon_s = v.number; }},
      {"sample_interval", kDouble, nullptr, kPositive,
       "metric cadence, s (default horizon/15)",
       [](S& s, const V& v) { s.sample_interval_s = v.number; }},
      {"queries", kInt, "10000", kQueries, "lookup pairs per metric sample",
       [](S& s, const V& v) { s.queries = v.as<size_t>(); }},
      {"nhops", kInt, "2", kNonNegative, "TTL of the PROP random walk",
       [](S& s, const V& v) { s.prop.nhops = v.as<size_t>(); }},
      {"m", kInt, "0", kNonNegative, "PROP-O exchange size (0 = min degree)",
       [](S& s, const V& v) { s.prop.m = v.as<size_t>(); }},
      {"min_var", kDouble, "0", kAny, "least Var gain that commits",
       [](S& s, const V& v) { s.prop.min_var = v.number; }},
      {"init_timer", kDouble, "60", kPositive, "base probe interval, s",
       [](S& s, const V& v) { s.prop.init_timer_s = v.number; }},
      {"max_init_trial", kInt, "10", kNonNegative, "warm-up probe trials",
       [](S& s, const V& v) { s.prop.max_init_trial = v.as<size_t>(); }},
      {"random_target", kBool, "false", kAny, "probe a random peer, no walk",
       [](S& s, const V& v) { s.prop.random_target = v.flag; }},
      {"model_message_delays", kBool, "false", kAny, "delayed commits",
       [](S& s, const V& v) { s.prop.model_message_delays = v.flag; }},
      {"selection", kEnum, "greedy", kAny, "PROP-O transfer-set policy",
       [](S& s, const V& v) { s.prop.selection = v.as<SelectionPolicy>(); },
       {"greedy", "random"}},
      {"lookup_rate", kDouble, "0", kNonNegative, "live lookups per s",
       [](S& s, const V& v) { s.lookup_rate_per_s = v.number; }},
      {"heterogeneity", kEnum, "none", kAny, "processing-delay model",
       [](S& s, const V& v) { s.heterogeneity = v.as<S::Heterogeneity>(); },
       {"none", "bimodal", "bimodal-degree"}},
      {"fast_fraction", kDouble, "0.2", {0.0, 1.0, true, true}, "fast peers",
       [](S& s, const V& v) { s.bimodal.fast_fraction = v.number; }},
      {"fast_delay_ms", kDouble, "10", kNonNegative, "fast-peer delay, ms",
       [](S& s, const V& v) { s.bimodal.fast_delay_ms = v.number; }},
      {"slow_delay_ms", kDouble, "100", kNonNegative, "slow-peer delay, ms",
       [](S& s, const V& v) { s.bimodal.slow_delay_ms = v.number; }},
      {"fraction_fast_dest", kDouble, "-1", {-kInf, 1.0},
       "lookups aimed at fast peers (negative = uniform)",
       [](S& s, const V& v) { s.fraction_fast_dest = v.number; }},
      {"churn_join_rate", kDouble, "0", kNonNegative, "joins per s",
       [](S& s, const V& v) { s.churn.join_rate_per_s = v.number; }},
      {"churn_leave_rate", kDouble, "0", kNonNegative, "leaves per s",
       [](S& s, const V& v) { s.churn.leave_rate_per_s = v.number; }},
      {"churn_fail_rate", kDouble, "0", kNonNegative, "crashes per s",
       [](S& s, const V& v) { s.churn.fail_rate_per_s = v.number; }},
      {"churn_start", kDouble, "0", kNonNegative, "churn window start, s",
       [](S& s, const V& v) { s.churn.start_s = v.number; }},
      {"churn_end", kDouble, nullptr, kNonNegative,
       "churn window end, s (default horizon)",
       [](S& s, const V& v) { s.churn.end_s = v.number; }},
      {"oracle", kEnum, "auto", kAny, "latency-oracle engine",
       [](S& s, const V& v) { s.oracle_mode = v.as<S::OracleMode>(); },
       {"auto", "hierarchical", "dijkstra"}},
      {"oracle_cache_rows", kInt, "1024", kNonNegative,
       "resident Dijkstra rows (0 = unbounded)",
       [](S& s, const V& v) { s.oracle_cache_rows = v.as<size_t>(); }},
      {"measure_threads", kIntOrAuto, "auto", kThreads,
       "metric-sweep threads (0 or 1 = serial, auto = the run's cores)",
       [](S& s, const V& v) {
         s.measure_threads =
             v.is_auto ? S::kMeasureThreadsAuto : v.as<size_t>();
       }},
      {"measure_mode", kEnum, "auto", kAny, "metric flood kernel",
       [](S& s, const V& v) { s.measure_mode = v.as<S::MeasureMode>(); },
       {"auto", "exact"}},
      {"trace", kText, nullptr, kAny, "propsim.trace v1 JSONL output",
       [](S& s, const V& v) { s.trace_path = v.text; }},
      {"fault_loss", kDouble, "0", kUnitOpen, "message loss probability",
       [](S& s, const V& v) { s.faults.message_loss = v.number; }},
      {"fault_jitter", kDouble, "0", kUnitOpen, "latency jitter amplitude",
       [](S& s, const V& v) { s.faults.latency_jitter = v.number; }},
      {"fault_crash", kDouble, "0", kUnitOpen, "negotiation crash probability",
       [](S& s, const V& v) { s.faults.crash_per_negotiation = v.number; }},
      {"fault_max_retries", kInt, "2", kNonNegative, "prepare retransmissions",
       [](S& s, const V& v) {
         s.faults.max_negotiation_retries = v.as<size_t>();
       }},
      {"fault_partition_domain", kIntOrAuto, nullptr, kIndex,
       "stub domain to cut off (auto = densest)",
       [](S& s, const V& v) { partition(s).stub_domain = domain(v); }},
      {"fault_partition_start", kDouble, nullptr, kNonNegative,
       "partition start, s",
       [](S& s, const V& v) { partition(s).start_s = v.number; }},
      {"fault_partition_end", kDouble, nullptr, kNonNegative,
       "partition end, s",
       [](S& s, const V& v) { partition(s).end_s = v.number; }},
      {"fault_storm_domain", kIntOrAuto, nullptr, kIndex,
       "stub domain whose peers all crash (auto = densest)",
       [](S& s, const V& v) { storm(s).stub_domain = domain(v); }},
      {"fault_storm_start", kDouble, nullptr, kNonNegative, "storm start, s",
       [](S& s, const V& v) { storm(s).start_s = v.number; }},
      {"fault_storm_window", kDouble, nullptr, kPositive, "storm length, s",
       [](S& s, const V& v) { storm(s).window_s = v.number; }},
      {"fault_loss_burst_len", kInt, "0", kNonNegative,
       "mean loss burst length (0 = Bernoulli)",
       [](S& s, const V& v) { s.faults.loss_burst_len = v.as<size_t>(); }},
      {"adversary_liar_fraction", kDouble, "0", kUnitOpen, "cost liars",
       [](S& s, const V& v) { s.adversary.liar_fraction = v.number; }},
      {"adversary_freeride_fraction", kDouble, "0", kUnitOpen, "free-riders",
       [](S& s, const V& v) { s.adversary.freeride_fraction = v.number; }},
      {"adversary_dropper_fraction", kDouble, "0", kUnitOpen, "commit droppers",
       [](S& s, const V& v) { s.adversary.dropper_fraction = v.number; }},
      {"adversary_eclipse_fraction", kDouble, "0", kUnitOpen, "eclipse cohort",
       [](S& s, const V& v) { s.adversary.eclipse_fraction = v.number; }},
      {"adversary_lie_factor", kDouble, "0.5", {0.0, 1.0, true},
       "liar cost deflation",
       [](S& s, const V& v) { s.adversary.lie_factor = v.number; }},
      {"adversary_drop_probability", kDouble, "1", kUnitClosed,
       "dropper per-commit drop probability",
       [](S& s, const V& v) { s.adversary.drop_probability = v.number; }},
      {"adversary_eclipse_target", kIntOrAuto, nullptr, kIndex,
       "slot to eclipse (auto = highest degree)",
       [](S& s, const V& v) {
         s.adversary.eclipse_target =
             v.is_auto ? kInvalidSlot : v.as<SlotId>();
       }},
  };
  return keys;
}

/// Parses `text` as key `k`'s value and range-checks it; on failure
/// records the issue and returns nullopt.
std::optional<SpecValue> parse_value(const SpecKey& k, const std::string& text,
                                     Issues& out) {
  auto fail = [&](std::string message, std::string hint = {}) {
    out.push_back({k.name, std::move(message), std::move(hint)});
    return std::nullopt;
  };
  const std::string got = ", got '" + text + "'";
  const std::string or_auto = k.type == kIntOrAuto ? " or 'auto'" : "";
  SpecValue v;
  if (k.type == kText) {
    v.text = text;
  } else if (k.type == kBool) {
    const auto b = parse_bool(text);
    if (!b) {
      return fail("expected a boolean" + got,
                  "use true/false, 1/0, yes/no or on/off");
    }
    v.flag = *b;
  } else if (k.type == kEnum) {
    if (k.name == std::string("measure_mode") && text == "fast") {
      return fail("fast was removed with the fixed-point flood kernel; the "
                  "exact kernel now runs on the same bucket queue",
                  "use measure_mode = exact or auto");
    }
    const auto it = std::find(k.choices.begin(), k.choices.end(), text);
    if (it == k.choices.end()) {
      return fail("unknown value '" + text + "'", "must be " + k.accepts());
    }
    v.integer = it - k.choices.begin();
  } else if (k.type == kIntOrAuto && text == "auto") {
    v.is_auto = true;
  } else if (k.type == kDouble) {
    const auto d = parse_double(text);
    if (!d) return fail("expected a number" + got);
    const std::string range = k.range.describe();
    if (!std::isfinite(*d) || !k.range.contains(*d)) {
      return fail("must be a finite number" +
                  (range.empty() ? "" : " " + range) + got);
    }
    v.number = *d;
  } else {
    const auto i = parse_int(text);
    if (!i) return fail("expected an integer" + or_auto + got);
    if (!k.range.contains(static_cast<double>(*i))) {
      return fail("must be " + k.range.describe() + or_auto + got);
    }
    v.integer = *i;
  }
  return v;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t prev = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = prev;
    }
  }
  return row[b.size()];
}

/// The issue for a key outside the table, suggesting the closest one;
/// nullopt for a key in the table.
std::optional<SpecIssue> unknown_key(const std::string& key) {
  std::string best;
  // A full rewrite, or more than three edits, is no suggestion.
  std::size_t best_d = std::min<std::size_t>(key.size(), 4);
  for (const SpecKey& k : table()) {
    if (key == k.name) return std::nullopt;
    const std::size_t d = edit_distance(key, k.name);
    if (d < best_d) {
      best_d = d;
      best = k.name;
    }
  }
  return SpecIssue{key, "unknown config key",
                   best.empty() ? "see README for the key table"
                                : "did you mean '" + best + "'?"};
}

/// Why a trace file could not be opened for writing at `path`, or ""
/// when it can. Nothing is created, so validating a spec stays free of
/// side effects.
std::string trace_path_problem(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path file(path);
  const fs::path dir = file.has_parent_path() ? file.parent_path() : ".";
  if (!fs::is_directory(dir, ec)) {
    return "directory '" + dir.string() + "' does not exist";
  }
  if (fs::is_directory(file, ec)) return "names a directory, not a file";
  const bool exists = fs::exists(file, ec);
  const int mode = exists ? W_OK : W_OK | X_OK;
  if (::access((exists ? file : dir).c_str(), mode) != 0) {
    return std::string("cannot write there: ") + std::strerror(errno);
  }
  return "";
}

// ------------------------------------------------------- joint rules ----
// Constraints that span keys (or a key and the build), checked on the
// fully set spec; a consumer's cross-key precondition lives here.

using JointRule = void (*)(const S& s, const Config& c, Issues& out);

/// Records the issue unless `ok`.
void require(bool ok, Issues& out, std::string key, std::string message,
             std::string hint = "") {
  if (!ok) out.push_back({std::move(key), std::move(message), std::move(hint)});
}

bool runs_prop(const S& s) {
  return s.protocol == S::Protocol::kPropG ||
         s.protocol == S::Protocol::kPropO;
}

/// Peers and, when peers join, their churn spares are distinct stub
/// hosts (a Waxman graph is sized from nodes, up to kMaxWaxmanNodes). A
/// PROP walk takes at least one hop, and being self-avoiding it visits
/// nhops + 1 distinct peers.
void population_fits(const S& s, const Config&, Issues& out) {
  const std::size_t most = s.nodes + churn_spares(s);
  const bool waxman = s.topology == S::Topology::kWaxman;
  const std::size_t pool = transit_stub_config(s.topology).stub_nodes();
  require(waxman || most <= pool, out, "nodes",
          "needs " + std::to_string(most) +
              " stub hosts (nodes, plus a quarter for churn spares when "
              "churn_join_rate > 0), but " +
              to_string(s.topology) + " has " + std::to_string(pool),
          "lower nodes or use topology = waxman");
  require(!waxman || s.nodes <= kMaxWaxmanNodes, out, "nodes",
          "a waxman world grows with the cube of nodes; at most " +
              std::to_string(kMaxWaxmanNodes) + " peers are allowed",
          "lower nodes or use topology = ts-large | ts-small");
  if (!runs_prop(s) || s.prop.random_target) return;
  require(s.prop.nhops >= 1, out, "nhops", "a PROP walk needs nhops >= 1",
          "or set random_target = true");
  require(s.prop.nhops < most, out, "nhops",
          "a walk visits nhops + 1 distinct peers, but at most " +
              std::to_string(most) + " exist",
          "lower nhops below nodes");
}

void workload_consistent(const S& s, const Config&, Issues& out) {
  require(s.fraction_fast_dest < 0.0 ||
              s.heterogeneity != S::Heterogeneity::kNone,
          out, "fraction_fast_dest", "requires a heterogeneity model",
          "set heterogeneity = bimodal or bimodal-degree");
  require(s.churn.start_s <= s.churn.end_s, out, "churn_end",
          "churn window must satisfy start <= end",
          "churn_end defaults to horizon");
}

/// A protocol fires each peer's timer at most once per init_timer, and
/// the sampler runs one metric sweep per sample_interval, so the two
/// ratios to horizon bound a run's work per peer. Measured on
/// fig5_like.conf (1000 peers, 10000 queries, one measure thread):
/// about 0.5 us per event and 61 ms per sample. At either bound that
/// run costs about ten minutes; past it, a tiny interval no longer even
/// advances the clock.
constexpr double kMaxTimerIntervals = 1e6;
constexpr double kMaxSamples = 1e4;

void work_bounded(const S& s, const Config&, Issues& out) {
  const double intervals = s.horizon_s / s.prop.init_timer_s;
  require(s.protocol == S::Protocol::kNone || intervals <= kMaxTimerIntervals,
          out, "init_timer",
          "horizon / init_timer is " + Table::fmt(intervals, 6) +
              " timer intervals; at most " + Table::fmt(kMaxTimerIntervals) +
              " are allowed",
          "raise init_timer or shorten horizon");
  const double samples = s.horizon_s / s.sample_interval_s;
  require(samples <= kMaxSamples, out, "sample_interval",
          "horizon / sample_interval is " + Table::fmt(samples, 6) +
              " metric samples; at most " + Table::fmt(kMaxSamples) +
              " are allowed",
          "raise sample_interval or shorten horizon");
}

void engines_available(const S& s, const Config&, Issues& out) {
  require(s.oracle_mode != S::OracleMode::kHierarchical ||
              s.topology != S::Topology::kWaxman,
          out, "oracle", "hierarchical oracle requires a transit-stub topology",
          "use topology = ts-large | ts-small, or oracle = dijkstra");
  if (!s.trace_path.empty()) {
    const std::string problem = trace_path_problem(s.trace_path);
    require(problem.empty(), out, "trace", problem);
  }
}

/// A partition or storm window: its three keys come together, on a
/// transit-stub preset, naming one of the preset's stub domains. Returns
/// whether all three keys are set.
bool window_valid(const S& s, const Config& c, const char* const (&keys)[3],
                  const char* one, const char* many, std::uint32_t domain,
                  Issues& out) {
  const bool all = c.has(keys[0]) && c.has(keys[1]) && c.has(keys[2]);
  require(all, out, keys[0],
          std::string(one) + " needs " + keys[0] + ", " + keys[1] + " and " +
              keys[2] + " together");
  const bool waxman = s.topology == S::Topology::kWaxman;
  require(!all || !waxman, out, keys[0],
          std::string(many) + " a stub domain and require a transit-stub "
                              "topology",
          "use topology = ts-large | ts-small");
  const std::size_t count = transit_stub_config(s.topology).stub_domains();
  require(!all || waxman || domain == kPartitionDomainAuto || domain < count,
          out, keys[0],
          "stub domain " + std::to_string(domain) + " does not exist; " +
              to_string(s.topology) + " has " + std::to_string(count),
          "use an index below " + std::to_string(count) + " or auto");
  return all;
}

void faults_valid(const S& s, const Config& c, Issues& out) {
  if (!s.faults.partitions.empty()) {
    const PartitionWindow& w = s.faults.partitions.front();
    const bool all = window_valid(
        s, c,
        {"fault_partition_domain", "fault_partition_start",
         "fault_partition_end"},
        "a partition window", "partition windows cut", w.stub_domain, out);
    require(!all || w.start_s < w.end_s, out, "fault_partition_end",
            "window must satisfy 0 <= start < end");
  }
  if (!s.faults.storms.empty()) {
    window_valid(
        s, c, {"fault_storm_domain", "fault_storm_start", "fault_storm_window"},
        "a crash storm", "crash storms fail",
        s.faults.storms.front().stub_domain, out);
  }
  require(s.faults.loss_burst_len == 0 || s.faults.message_loss > 0.0, out,
          "fault_loss_burst_len",
          "burst loss shapes the fault_loss stream and requires "
          "fault_loss > 0");
}

/// LTM, churn, injected crashes and PROP-O's edge rewiring are
/// unstructured-overlay machinery (PROP-O would corrupt a DHT's routing
/// structure; the paper applies it to unstructured systems only), and the
/// adversary models sit on the PROP negotiation path.
void gnutella_only(const S& s, const Config&, Issues& out) {
  if (s.overlay == S::Overlay::kGnutella) return;
  const std::string overlay_is =
      std::string("overlay is ") + to_string(s.overlay);
  auto only = [&](bool used, const char* key, const char* what) {
    require(!used, out, key,
            std::string(what) + " the unstructured gnutella overlay",
            overlay_is);
  };
  only(s.protocol == S::Protocol::kLtm, "protocol", "ltm requires");
  only(s.protocol == S::Protocol::kPropO, "protocol",
       "prop-o rewires overlay edges and requires");
  only(s.churn.join_rate_per_s > 0.0 || s.churn.leave_rate_per_s > 0.0 ||
           s.churn.fail_rate_per_s > 0.0,
       "", "churn rates require");
  only(s.faults.crash_per_negotiation > 0.0, "fault_crash",
       "crash injection repairs through the churn path and requires");
  only(!s.faults.storms.empty(), "fault_storm_domain",
       "crash storms repair through the churn path and require");
  only(s.adversary.active(), "",
       "adversary models target the PROP negotiation path and require");
}

/// Some honest majority remains; the models intercept PROP negotiations;
/// eclipse attackers move by PROP-G swaps toward a slot that exists.
void adversaries_valid(const S& s, const Config& c, Issues& out) {
  const AdversaryParams& a = s.adversary;
  require(a.liar_fraction + a.freeride_fraction + a.dropper_fraction +
                  a.eclipse_fraction < 1.0,
          out, "", "adversary fractions must sum below 1",
          "some honest majority has to remain");
  require(!a.active() || runs_prop(s), out, "",
          "adversary models intercept PROP negotiations",
          "set protocol = prop-g or prop-o");
  require(a.eclipse_fraction <= 0.0 || s.protocol == S::Protocol::kPropG,
          out, "adversary_eclipse_fraction",
          "eclipse attackers monopolize seats via placement swaps",
          "requires protocol = prop-g");
  if (!c.has("adversary_eclipse_target")) return;
  require(a.eclipse_fraction > 0.0, out, "adversary_eclipse_target",
          "only meaningful with adversary_eclipse_fraction > 0");
  require(a.eclipse_target == kInvalidSlot || a.eclipse_target < s.nodes, out,
          "adversary_eclipse_target",
          "slot " + std::to_string(a.eclipse_target) +
              " does not exist; the overlay starts with " +
              std::to_string(s.nodes),
          "use a slot below nodes or auto");
}

constexpr JointRule kJointRules[] = {
    population_fits, workload_consistent, work_bounded,  engines_available,
    faults_valid,    gnutella_only,       adversaries_valid,
};

}  // namespace

bool SpecRange::contains(double v) const {
  return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
}

std::string SpecRange::describe() const {
  if (lo == -kInf && hi == kInf) return "";
  std::string out = lo_open || lo == -kInf ? "in (" : "in [";
  out += Table::fmt(lo, 15) + ", " + Table::fmt(hi, 15);
  return out + (hi_open || hi == kInf ? ")" : "]");
}

std::string SpecKey::accepts() const {
  std::string out;
  for (const char* choice : choices) {
    if (!out.empty()) out += " | ";
    out += choice;
  }
  if (type == kBool) out = "true | false";
  if (type == kText) out = "<path>";
  if (type == kInt || type == kIntOrAuto) out = "<int>";
  if (type == kDouble) out = "<number>";
  const std::string bounds = range.describe();
  if (!bounds.empty()) out += " " + bounds;
  if (type == kIntOrAuto) out += " | auto";
  return out;
}

std::span<const SpecKey> spec_keys() { return table(); }

TransitStubConfig transit_stub_config(ExperimentSpec::Topology topology) {
  return topology == ExperimentSpec::Topology::kTsLarge
             ? TransitStubConfig::ts_large()
             : TransitStubConfig::ts_small();
}

SpecResult ExperimentSpec::from_config(const Config& config) {
  SpecResult result;
  ExperimentSpec& spec = result.spec_storage;
  Issues& errors = result.errors;
  // 1. Unknown keys, with the closest known key as a suggestion.
  for (const auto& [key, value] : config.values()) {
    if (auto issue = unknown_key(key)) errors.push_back(std::move(*issue));
  }
  // 2. Every key: its value, else its default, parsed, range-checked and
  // set. A bad value leaves the field untouched.
  for (const SpecKey& k : table()) {
    const bool given = config.has(k.name);
    if (!given && k.default_value == nullptr) continue;
    const std::string text =
        given ? config.get_string(k.name, "") : k.default_value;
    if (const auto value = parse_value(k, text, errors)) k.set(spec, *value);
  }
  // 3. Defaults derived from other keys.
  if (!config.has("sample_interval")) {
    spec.sample_interval_s = spec.horizon_s / 15.0;
  }
  if (!config.has("churn_end")) spec.churn.end_s = spec.horizon_s;
  spec.prop.mode =
      spec.protocol == Protocol::kPropO ? PropMode::kPropO : PropMode::kPropG;
  // 4. Constraints across keys.
  for (const JointRule rule : kJointRules) rule(spec, config, errors);
  return result;
}

}  // namespace propsim
