#include "app/experiment.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>

#include "analysis/invariant_checker.h"
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
namespace {

/// Every key from_config understands; unknown keys are rejected with the
/// closest of these as a suggestion.
constexpr const char* kKnownKeys[] = {
    "topology",        "overlay",           "protocol",
    "nodes",           "seed",              "horizon",
    "sample_interval", "queries",           "nhops",
    "m",               "min_var",           "init_timer",
    "max_init_trial",  "random_target",     "model_message_delays",
    "selection",       "lookup_rate",       "heterogeneity",
    "fast_fraction",   "fast_delay_ms",     "slow_delay_ms",
    "fraction_fast_dest", "churn_join_rate", "churn_leave_rate",
    "churn_fail_rate", "churn_start",       "churn_end",
    "oracle",          "oracle_cache_rows", "measure_threads",
    "measure_mode",    "trace",             "trace_buffer",
    "fault_loss",      "fault_jitter",      "fault_crash",
    "fault_max_retries", "fault_partition_domain",
    "fault_partition_start", "fault_partition_end",
    "fault_storm_domain",    "fault_storm_start",
    "fault_storm_window",    "fault_loss_burst_len",
    "adversary_liar_fraction",    "adversary_freeride_fraction",
    "adversary_dropper_fraction", "adversary_eclipse_fraction",
    "adversary_lie_factor",       "adversary_drop_probability",
    "adversary_eclipse_target",
};

/// The generator preset behind a transit-stub topology choice.
TransitStubConfig transit_stub_config(ExperimentSpec::Topology topology) {
  return topology == ExperimentSpec::Topology::kTsLarge
             ? TransitStubConfig::ts_large()
             : TransitStubConfig::ts_small();
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

std::string closest_known_key(const std::string& key) {
  std::string best;
  std::size_t best_d = key.size();  // a full rewrite is no suggestion
  for (const char* candidate : kKnownKeys) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best_d) {
      best_d = d;
      best = candidate;
    }
  }
  return best_d <= 3 ? best : std::string();
}

/// Collects typed values and accumulates SpecIssues instead of aborting;
/// on any error the corresponding fallback keeps the spec fields
/// well-defined (the caller discards the spec when !ok()).
class SpecParser {
 public:
  explicit SpecParser(const Config& config) : config_(config) {}

  void error(const std::string& key, std::string message,
             std::string hint = {}) {
    errors_.push_back(SpecIssue{key, std::move(message), std::move(hint)});
  }

  std::int64_t get_int(const std::string& key, std::int64_t fallback) {
    if (!config_.has(key)) return fallback;
    const auto v = config_.try_get_int(key);
    if (!v) {
      error(key, "expected an integer, got '" +
                     config_.get_string(key, "") + "'");
      return fallback;
    }
    return *v;
  }

  double get_double(const std::string& key, double fallback) {
    if (!config_.has(key)) return fallback;
    const auto v = config_.try_get_double(key);
    if (!v) {
      error(key,
            "expected a number, got '" + config_.get_string(key, "") + "'");
      return fallback;
    }
    return *v;
  }

  bool get_bool(const std::string& key, bool fallback) {
    if (!config_.has(key)) return fallback;
    const auto v = config_.try_get_bool(key);
    if (!v) {
      error(key, "expected a boolean, got '" +
                     config_.get_string(key, "") + "'",
            "use true/false, 1/0, yes/no or on/off");
      return fallback;
    }
    return *v;
  }

  /// Matches the value against a fixed enum vocabulary; reports the valid
  /// spellings on mismatch.
  template <typename Enum>
  Enum get_enum(const std::string& key,
                std::initializer_list<std::pair<const char*, Enum>> choices,
                Enum fallback) {
    const std::string v = config_.get_string(key, "");
    if (v.empty() && !config_.has(key)) return fallback;
    std::string valid;
    for (const auto& [name, value] : choices) {
      if (v == name) return value;
      if (!valid.empty()) valid += " | ";
      valid += name;
    }
    error(key, "unknown value '" + v + "'", "must be " + valid);
    return fallback;
  }

  void reject_unknown_keys() {
    for (const auto& [key, value] : config_.values()) {
      bool known = false;
      for (const char* k : kKnownKeys) known = known || key == k;
      if (known) continue;
      const std::string suggestion = closest_known_key(key);
      error(key, "unknown config key",
            suggestion.empty() ? std::string("see README for the key table")
                               : "did you mean '" + suggestion + "'?");
    }
  }

  std::vector<SpecIssue> take_errors() { return std::move(errors_); }

 private:
  const Config& config_;
  std::vector<SpecIssue> errors_;
};

}  // namespace

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

SpecResult ExperimentSpec::from_config(const Config& config) {
  SpecResult result;
  ExperimentSpec& spec = result.spec_storage;
  SpecParser p(config);
  p.reject_unknown_keys();

  spec.topology = p.get_enum<Topology>(
      "topology",
      {{"ts-large", Topology::kTsLarge},
       {"ts-small", Topology::kTsSmall},
       {"waxman", Topology::kWaxman}},
      Topology::kTsLarge);
  spec.overlay = p.get_enum<Overlay>(
      "overlay",
      {{"gnutella", Overlay::kGnutella},
       {"chord", Overlay::kChord},
       {"pastry", Overlay::kPastry},
       {"tapestry", Overlay::kTapestry},
       {"can", Overlay::kCan}},
      Overlay::kGnutella);
  spec.protocol = p.get_enum<Protocol>(
      "protocol",
      {{"none", Protocol::kNone},
       {"prop-g", Protocol::kPropG},
       {"prop-o", Protocol::kPropO},
       {"ltm", Protocol::kLtm}},
      Protocol::kPropG);

  const std::int64_t nodes = p.get_int("nodes", 1000);
  if (nodes < 8) {
    p.error("nodes", "must be at least 8, got " + std::to_string(nodes));
  }
  spec.nodes = static_cast<std::size_t>(std::max<std::int64_t>(nodes, 8));
  // Peers and their churn spares (a quarter more) are distinct stub
  // hosts; a Waxman graph is sized from nodes, so it always fits.
  if (spec.topology != Topology::kWaxman) {
    const std::size_t pool = transit_stub_config(spec.topology).stub_nodes();
    if (spec.nodes + spec.nodes / 4 > pool) {
      p.error("nodes",
              "needs " + std::to_string(spec.nodes + spec.nodes / 4) +
                  " stub hosts (nodes plus a quarter for churn spares), "
                  "but " + to_string(spec.topology) + " has " +
                  std::to_string(pool),
              "lower nodes or use topology = waxman");
    }
  }
  spec.seed = static_cast<std::uint64_t>(p.get_int("seed", 20070901));
  spec.horizon_s = p.get_double("horizon", 3600.0);
  if (spec.horizon_s <= 0.0) {
    p.error("horizon", "must be positive");
    spec.horizon_s = 3600.0;
  }
  spec.sample_interval_s =
      p.get_double("sample_interval", spec.horizon_s / 15.0);
  if (spec.sample_interval_s <= 0.0) {
    p.error("sample_interval", "must be positive");
    spec.sample_interval_s = spec.horizon_s / 15.0;
  }
  const std::int64_t queries = p.get_int("queries", 10000);
  if (queries < 1) p.error("queries", "must be at least 1");
  spec.queries = static_cast<std::size_t>(std::max<std::int64_t>(queries, 1));

  spec.prop.mode = spec.protocol == Protocol::kPropO ? PropMode::kPropO
                                                     : PropMode::kPropG;
  spec.prop.nhops = static_cast<std::size_t>(p.get_int("nhops", 2));
  spec.prop.m = static_cast<std::size_t>(p.get_int("m", 0));
  spec.prop.min_var = p.get_double("min_var", 0.0);
  spec.prop.init_timer_s = p.get_double("init_timer", 60.0);
  spec.prop.max_init_trial =
      static_cast<std::size_t>(p.get_int("max_init_trial", 10));
  spec.prop.random_target = p.get_bool("random_target", false);
  spec.prop.model_message_delays =
      p.get_bool("model_message_delays", false);
  spec.prop.selection = p.get_enum<SelectionPolicy>(
      "selection",
      {{"greedy", SelectionPolicy::kGreedy},
       {"random", SelectionPolicy::kRandom}},
      SelectionPolicy::kGreedy);
  spec.ltm.interval_s = spec.prop.init_timer_s;
  spec.lookup_rate_per_s = p.get_double("lookup_rate", 0.0);
  if (spec.lookup_rate_per_s < 0.0) {
    p.error("lookup_rate", "must be >= 0");
    spec.lookup_rate_per_s = 0.0;
  }

  spec.heterogeneity = p.get_enum<Heterogeneity>(
      "heterogeneity",
      {{"none", Heterogeneity::kNone},
       {"bimodal", Heterogeneity::kBimodal},
       {"bimodal-degree", Heterogeneity::kBimodalByDegree}},
      Heterogeneity::kNone);
  spec.bimodal.fast_fraction = p.get_double("fast_fraction", 0.2);
  spec.bimodal.fast_delay_ms = p.get_double("fast_delay_ms", 10.0);
  spec.bimodal.slow_delay_ms = p.get_double("slow_delay_ms", 100.0);
  // Processing delays are flood edge costs, which must be >= 0.
  auto require_delay = [&p](const char* key, double& ms) {
    if (!(ms >= 0.0 && std::isfinite(ms))) {
      p.error(key, "must be a finite number >= 0");
      ms = 0.0;
    }
  };
  require_delay("fast_delay_ms", spec.bimodal.fast_delay_ms);
  require_delay("slow_delay_ms", spec.bimodal.slow_delay_ms);
  spec.fraction_fast_dest = p.get_double("fraction_fast_dest", -1.0);
  if (spec.fraction_fast_dest >= 0.0) {
    if (spec.heterogeneity == Heterogeneity::kNone) {
      p.error("fraction_fast_dest",
              "requires a heterogeneity model",
              "set heterogeneity = bimodal or bimodal-degree");
    }
    if (spec.fraction_fast_dest > 1.0) {
      p.error("fraction_fast_dest", "must be in [0, 1]");
      spec.fraction_fast_dest = 1.0;
    }
  }

  spec.churn.join_rate_per_s = p.get_double("churn_join_rate", 0.0);
  spec.churn.leave_rate_per_s = p.get_double("churn_leave_rate", 0.0);
  spec.churn.fail_rate_per_s = p.get_double("churn_fail_rate", 0.0);
  spec.churn.start_s = p.get_double("churn_start", 0.0);
  spec.churn.end_s = p.get_double("churn_end", spec.horizon_s);

  spec.oracle_mode = p.get_enum<OracleMode>(
      "oracle",
      {{"auto", OracleMode::kAuto},
       {"hierarchical", OracleMode::kHierarchical},
       {"dijkstra", OracleMode::kDijkstra}},
      OracleMode::kAuto);
  const std::int64_t cache_rows = p.get_int("oracle_cache_rows", 1024);
  if (cache_rows < 0) p.error("oracle_cache_rows", "must be >= 0");
  spec.oracle_cache_rows =
      static_cast<std::size_t>(std::max<std::int64_t>(cache_rows, 0));
  if (spec.oracle_mode == OracleMode::kHierarchical &&
      spec.topology == Topology::kWaxman) {
    p.error("oracle",
            "hierarchical oracle requires a transit-stub topology",
            "use topology = ts-large | ts-small, or oracle = dijkstra");
  }

  if (config.has("measure_threads")) {
    const std::string mt = config.get_string("measure_threads", "");
    if (mt == "auto") {
      spec.measure_threads = kMeasureThreadsAuto;
    } else {
      const std::int64_t v = p.get_int("measure_threads", 1);
      if (v < 0) {
        p.error("measure_threads", "must be >= 0 or 'auto'",
                "0 and 1 both mean serial");
      } else {
        spec.measure_threads = static_cast<std::size_t>(v);
      }
    }
  }

  if (config.get_string("measure_mode", "") == "fast") {
    p.error("measure_mode",
            "fast was removed with the fixed-point flood kernel; the exact "
            "kernel now runs on the same bucket queue",
            "use measure_mode = exact or auto");
  } else {
    spec.measure_mode = p.get_enum<MeasureMode>(
        "measure_mode",
        {{"auto", MeasureMode::kAuto}, {"exact", MeasureMode::kExact}},
        MeasureMode::kAuto);
  }

  spec.trace_path = config.get_string("trace", "");
  if (!spec.trace_path.empty() && !obs::trace_compiled_in()) {
    p.error("trace", "trace output requires a PROPSIM_TRACE=ON build",
            "rebuild with -DPROPSIM_TRACE=ON (the default preset has it)");
  } else if (!spec.trace_path.empty()) {
    const std::string problem = trace_path_problem(spec.trace_path);
    if (!problem.empty()) p.error("trace", problem);
  }
  const std::int64_t trace_buffer = p.get_int("trace_buffer", 8192);
  if (trace_buffer < 1) p.error("trace_buffer", "must be at least 1");
  spec.trace_buffer_events =
      static_cast<std::size_t>(std::max<std::int64_t>(trace_buffer, 1));
  if (config.has("trace_buffer") && spec.trace_path.empty()) {
    p.error("trace_buffer", "only meaningful together with trace = <path>");
  }

  spec.faults.message_loss = p.get_double("fault_loss", 0.0);
  if (spec.faults.message_loss < 0.0 || spec.faults.message_loss >= 1.0) {
    p.error("fault_loss", "must be in [0, 1)");
    spec.faults.message_loss = 0.0;
  }
  spec.faults.latency_jitter = p.get_double("fault_jitter", 0.0);
  if (spec.faults.latency_jitter < 0.0 || spec.faults.latency_jitter >= 1.0) {
    p.error("fault_jitter", "must be in [0, 1)");
    spec.faults.latency_jitter = 0.0;
  }
  spec.faults.crash_per_negotiation = p.get_double("fault_crash", 0.0);
  if (spec.faults.crash_per_negotiation < 0.0 ||
      spec.faults.crash_per_negotiation >= 1.0) {
    p.error("fault_crash", "must be in [0, 1)");
    spec.faults.crash_per_negotiation = 0.0;
  }
  const std::int64_t fault_retries = p.get_int("fault_max_retries", 2);
  if (fault_retries < 0) p.error("fault_max_retries", "must be >= 0");
  spec.faults.max_negotiation_retries =
      static_cast<std::size_t>(std::max<std::int64_t>(fault_retries, 0));
  const bool wants_partition = config.has("fault_partition_domain") ||
                               config.has("fault_partition_start") ||
                               config.has("fault_partition_end");
  if (wants_partition) {
    if (!config.has("fault_partition_domain") ||
        !config.has("fault_partition_start") ||
        !config.has("fault_partition_end")) {
      p.error("fault_partition_domain",
              "a partition window needs fault_partition_domain, "
              "fault_partition_start and fault_partition_end together");
    } else {
      PartitionWindow w;
      const std::string domain =
          config.get_string("fault_partition_domain", "");
      if (domain == "auto") {
        w.stub_domain = kPartitionDomainAuto;
      } else {
        const std::int64_t d = p.get_int("fault_partition_domain", 0);
        if (d < 0) {
          p.error("fault_partition_domain", "must be >= 0 or 'auto'");
        }
        w.stub_domain =
            static_cast<std::uint32_t>(std::max<std::int64_t>(d, 0));
      }
      w.start_s = p.get_double("fault_partition_start", 0.0);
      w.end_s = p.get_double("fault_partition_end", 0.0);
      if (w.start_s < 0.0 || w.end_s <= w.start_s) {
        p.error("fault_partition_end",
                "window must satisfy 0 <= start < end");
      } else {
        spec.faults.partitions.push_back(w);
      }
      if (spec.topology == Topology::kWaxman) {
        p.error("fault_partition_domain",
                "partition windows cut a stub domain and require a "
                "transit-stub topology",
                "use topology = ts-large | ts-small");
      }
    }
  }
  if (spec.faults.crash_per_negotiation > 0.0 &&
      spec.overlay != Overlay::kGnutella) {
    p.error("fault_crash",
            "crash injection repairs through the churn path and requires "
            "the unstructured gnutella overlay",
            std::string("overlay is ") + to_string(spec.overlay));
  }

  const std::int64_t burst_len = p.get_int("fault_loss_burst_len", 0);
  if (burst_len < 0) {
    p.error("fault_loss_burst_len", "must be >= 0 (0 = Bernoulli loss)");
  }
  spec.faults.loss_burst_len =
      static_cast<std::size_t>(std::max<std::int64_t>(burst_len, 0));
  if (spec.faults.loss_burst_len > 0 && spec.faults.message_loss <= 0.0) {
    p.error("fault_loss_burst_len",
            "burst loss shapes the fault_loss stream and requires "
            "fault_loss > 0");
    spec.faults.loss_burst_len = 0;
  }

  const bool wants_storm = config.has("fault_storm_domain") ||
                           config.has("fault_storm_start") ||
                           config.has("fault_storm_window");
  if (wants_storm) {
    if (!config.has("fault_storm_domain") ||
        !config.has("fault_storm_start") ||
        !config.has("fault_storm_window")) {
      p.error("fault_storm_domain",
              "a crash storm needs fault_storm_domain, fault_storm_start "
              "and fault_storm_window together");
    } else {
      StormWindow w;
      const std::string domain = config.get_string("fault_storm_domain", "");
      if (domain == "auto") {
        w.stub_domain = kPartitionDomainAuto;
      } else {
        const std::int64_t d = p.get_int("fault_storm_domain", 0);
        if (d < 0) p.error("fault_storm_domain", "must be >= 0 or 'auto'");
        w.stub_domain =
            static_cast<std::uint32_t>(std::max<std::int64_t>(d, 0));
      }
      w.start_s = p.get_double("fault_storm_start", 0.0);
      w.window_s = p.get_double("fault_storm_window", 0.0);
      if (w.start_s < 0.0 || w.window_s <= 0.0) {
        p.error("fault_storm_window",
                "storm must satisfy start >= 0 and window > 0");
      } else {
        spec.faults.storms.push_back(w);
      }
      if (spec.topology == Topology::kWaxman) {
        p.error("fault_storm_domain",
                "crash storms fail a stub domain and require a "
                "transit-stub topology",
                "use topology = ts-large | ts-small");
      }
      if (spec.overlay != Overlay::kGnutella) {
        p.error("fault_storm_domain",
                "crash storms repair through the churn path and require "
                "the unstructured gnutella overlay",
                std::string("overlay is ") + to_string(spec.overlay));
      }
    }
  }

  spec.adversary.liar_fraction =
      p.get_double("adversary_liar_fraction", 0.0);
  spec.adversary.freeride_fraction =
      p.get_double("adversary_freeride_fraction", 0.0);
  spec.adversary.dropper_fraction =
      p.get_double("adversary_dropper_fraction", 0.0);
  spec.adversary.eclipse_fraction =
      p.get_double("adversary_eclipse_fraction", 0.0);
  for (const auto& [key, value] :
       {std::pair<const char*, double*>{"adversary_liar_fraction",
                                        &spec.adversary.liar_fraction},
        {"adversary_freeride_fraction", &spec.adversary.freeride_fraction},
        {"adversary_dropper_fraction", &spec.adversary.dropper_fraction},
        {"adversary_eclipse_fraction", &spec.adversary.eclipse_fraction}}) {
    if (*value < 0.0 || *value >= 1.0) {
      p.error(key, "must be in [0, 1)");
      *value = 0.0;
    }
  }
  if (spec.adversary.liar_fraction + spec.adversary.freeride_fraction +
          spec.adversary.dropper_fraction +
          spec.adversary.eclipse_fraction >=
      1.0) {
    p.error("", "adversary fractions must sum below 1",
            "some honest majority has to remain");
  }
  spec.adversary.lie_factor = p.get_double("adversary_lie_factor", 0.5);
  if (spec.adversary.lie_factor <= 0.0 || spec.adversary.lie_factor > 1.0) {
    p.error("adversary_lie_factor", "must be in (0, 1]");
    spec.adversary.lie_factor = 0.5;
  }
  spec.adversary.drop_probability =
      p.get_double("adversary_drop_probability", 1.0);
  if (spec.adversary.drop_probability < 0.0 ||
      spec.adversary.drop_probability > 1.0) {
    p.error("adversary_drop_probability", "must be in [0, 1]");
    spec.adversary.drop_probability = 1.0;
  }
  if (config.has("adversary_eclipse_target")) {
    if (spec.adversary.eclipse_fraction <= 0.0) {
      p.error("adversary_eclipse_target",
              "only meaningful with adversary_eclipse_fraction > 0");
    }
    const std::string target =
        config.get_string("adversary_eclipse_target", "");
    if (target == "auto") {
      spec.adversary.eclipse_target = kInvalidSlot;
    } else {
      const std::int64_t t = p.get_int("adversary_eclipse_target", 0);
      if (t < 0) {
        p.error("adversary_eclipse_target", "must be >= 0 or 'auto'");
      }
      spec.adversary.eclipse_target =
          static_cast<SlotId>(std::max<std::int64_t>(t, 0));
    }
  }
  if (spec.adversary.active()) {
    if (spec.overlay != Overlay::kGnutella) {
      p.error("", "adversary models target the PROP negotiation path and "
                  "require the unstructured gnutella overlay",
              std::string("overlay is ") + to_string(spec.overlay));
    }
    if (spec.protocol != Protocol::kPropG &&
        spec.protocol != Protocol::kPropO) {
      p.error("", "adversary models intercept PROP negotiations",
              "set protocol = prop-g or prop-o");
    }
  }
  if (spec.adversary.eclipse_fraction > 0.0 &&
      spec.protocol != Protocol::kPropG) {
    p.error("adversary_eclipse_fraction",
            "eclipse attackers monopolize seats via placement swaps",
            "requires protocol = prop-g");
  }

  const bool has_churn = spec.churn.join_rate_per_s > 0.0 ||
                         spec.churn.leave_rate_per_s > 0.0 ||
                         spec.churn.fail_rate_per_s > 0.0;
  if (spec.overlay != Overlay::kGnutella) {
    // LTM and the churn process are unstructured-overlay machinery.
    if (spec.protocol == Protocol::kLtm) {
      p.error("protocol",
              "ltm requires the unstructured gnutella overlay",
              std::string("overlay is ") + to_string(spec.overlay));
    }
    if (has_churn) {
      p.error("", "churn rates require the unstructured gnutella overlay",
              std::string("overlay is ") + to_string(spec.overlay));
    }
    // PROP-O rewires edges, which would corrupt a DHT's routing
    // structure; the paper applies it to unstructured systems only.
    if (spec.protocol == Protocol::kPropO) {
      p.error("protocol",
              "prop-o rewires overlay edges and only applies to gnutella",
              std::string("overlay is ") + to_string(spec.overlay));
    }
  }
  result.errors = p.take_errors();
  return result;
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
