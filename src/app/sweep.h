// Parameter sweeps: axis parsing, the Cartesian expansion and the one
// runner behind propsim_sweep and the figure benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "common/config.h"

namespace propsim {

struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// "a,b,c" -> {"a","b","c"}; empty segments are preserved (caller
/// validates), a lone string yields one element.
std::vector<std::string> split_commas(const std::string& s);

/// Parses "sweep:key=v1,v2" into an axis. A missing '=', an empty key or
/// an empty value is an error: returns nullopt and sets `error`.
std::optional<SweepAxis> parse_sweep_axis(const std::string& arg,
                                          std::string& error);

struct SweepCombo {
  Config config;
  std::string label;  // "key1=v1 key2=v2"
};

/// Cartesian product of the axes over a base config, in axis order
/// (first axis varies slowest). No axes -> one combo labelled "(base)".
std::vector<SweepCombo> expand_sweep(const Config& base,
                                     const std::vector<SweepAxis>& axes);

/// Repeat k of a combination runs at the combination's seed plus
/// k * kRepeatSeedStride.
inline constexpr std::uint64_t kRepeatSeedStride = 1000003;

/// Most threads one sweep may ask for: explicit measure_threads times
/// the runs in flight at once (and the most --jobs propsim_sweep takes).
inline constexpr std::size_t kMaxSweepThreads = 256;

struct SweepRuns {
  /// One "combination <label>:" block of SpecIssue lines per invalid
  /// combination. When non-empty, no simulation ran.
  std::string errors;
  /// results[c * repeat + k]: combination c at repeat k (task order).
  std::vector<ExperimentResult> results;
  /// Threads the runs shared, the caller's included: min(jobs,
  /// results.size()), jobs 0 counting as the hardware threads; 0 when
  /// nothing ran.
  std::size_t workers = 0;
  /// Measure threads each run with measure_threads = auto got: the
  /// hardware threads divided by the runs in flight at once, `workers`
  /// (measure_threads_for); 0 when nothing ran. Explicit counts are
  /// kept as given.
  std::size_t measure_threads = 0;

  bool ok() const { return errors.empty(); }
};

/// Validates every combination, then runs combination x repeat (>= 1) as
/// independent simulations on up to `jobs` threads (0 = one per
/// hardware thread), never more threads than runs, each measuring on
/// its share of the cores. A combination whose explicit
/// measure_threads times those threads exceeds kMaxSweepThreads is
/// invalid. The results do not depend on `jobs`.
SweepRuns run_sweep(const std::vector<SweepCombo>& combos,
                    std::size_t repeat, std::size_t jobs = 0);

}  // namespace propsim
