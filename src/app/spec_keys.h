// The ExperimentSpec config keys as one declarative table. It drives
// ExperimentSpec::from_config (parsing, range checks, did-you-mean),
// propsim_cli --help, and a test that holds README's key table to it.
// Constraints across keys are named joint rules in spec_keys.cpp.
// Adding a key = one descriptor there, plus a joint rule if needed.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "topology/transit_stub.h"

namespace propsim {

/// Numeric bounds (kInt, kIntOrAuto, kDouble); unbounded sides are
/// infinite.
struct SpecRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  bool contains(double v) const;
  std::string describe() const;  // "in (0, inf)"; "" when unbounded
};

/// A parsed, range-checked value, handed to a key's setter.
struct SpecValue {
  std::int64_t integer = 0;  // kInt, kIntOrAuto; kEnum vocabulary index
  bool is_auto = false;      // kIntOrAuto given as "auto"
  double number = 0.0;       // kDouble (always finite)
  bool flag = false;         // kBool
  std::string text;          // kText

  template <typename T>
  T as() const {
    return static_cast<T>(integer);
  }
};

struct SpecKey {
  enum class Type { kInt, kIntOrAuto, kDouble, kBool, kEnum, kText };

  const char* name;
  Type type;
  /// Used when the key is absent, checked like user input; nullptr
  /// leaves the field alone (optional, or derived after parsing).
  const char* default_value;
  SpecRange range;
  const char* doc;
  void (*set)(ExperimentSpec& spec, const SpecValue& value);
  std::vector<const char*> choices = {};  // kEnum, in enumerator order

  /// "ts-large | ts-small | waxman", "<number> in (0, inf)", ...
  std::string accepts() const;
};

/// Every config key, in the order from_config applies them.
std::span<const SpecKey> spec_keys();

/// The generator preset behind a transit-stub topology choice.
TransitStubConfig transit_stub_config(ExperimentSpec::Topology topology);

/// The most peers a Waxman world may hold. Its 4 hosts per peer are
/// linked with probability about 0.12 per pair, and the oracle runs one
/// Dijkstra row per peer over that dense graph, so the world costs about
/// nodes^3. Measured on one core of a 4-vCPU x86-64 container (graph
/// plus one row per peer, seed 20070901): 500, 1000, 1500, 2000 and 3000
/// peers took 0.7, 4.1, 15.7, 31.5 and 104 s and peaked at 28, 97, 217,
/// 368 and 824 MB; a whole protocol-free fig5_like run at 2000 peers took
/// 63 s. The bound keeps a Waxman world within about a minute of one
/// core and 400 MB.
inline constexpr std::size_t kMaxWaxmanNodes = 2000;

/// Stub hosts held back for churn joins, their only consumer: a quarter
/// of nodes when peers join, none otherwise.
inline std::size_t churn_spares(const ExperimentSpec& spec) {
  return spec.churn.join_rate_per_s > 0.0 ? spec.nodes / 4 : 0;
}

}  // namespace propsim
