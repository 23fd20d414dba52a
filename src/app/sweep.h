// Parameter-sweep expansion: the combinatorics behind propsim_sweep,
// separated from the tool so it is unit-testable.
#pragma once

#include <optional>
#include <string>
#include <vector>

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

}  // namespace propsim
