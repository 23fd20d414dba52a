// PROP protocol parameters (Section 3.2 of the paper).
//
// Defaults follow the paper where stated, or DESIGN.md's documented
// substitutions where the scraped text lost the digits.
#pragma once

#include <cstddef>

namespace propsim {

enum class PropMode {
  kPropG,  // exchange all neighbors == swap overlay positions
  kPropO,  // exchange m neighbors, degree-preserving
};

/// How PROP-O picks which m neighbors each side hands over.
enum class SelectionPolicy {
  /// Maximize the predicted Var: each side gives away the neighbors with
  /// the largest d(self, x) - d(counterpart, x).
  kGreedy,
  /// Uniformly random transferable neighbors — the paper's literal
  /// "arbitrary m neighbors" reading; kept for the ablation bench.
  kRandom,
};

struct PropParams {
  /// MAX_TIMER = 2^kMaxBackoffDoublings * INIT_TIMER ("at most five
  /// times of suspending").
  static constexpr std::size_t kMaxBackoffDoublings = 5;

  PropMode mode = PropMode::kPropG;

  /// TTL of the counterpart-finding random walk (the paper's nhops).
  std::size_t nhops = 2;

  /// Figure 5(a)/6(a) comparison scenario: probe a uniformly random node
  /// instead of walking (impractical in a real deployment; upper bound).
  bool random_target = false;

  /// PROP-O exchange size; 0 means "use delta(G)", the overlay's minimum
  /// degree, which is the paper's default.
  std::size_t m = 0;

  SelectionPolicy selection = SelectionPolicy::kGreedy;

  /// Minimum Var gain required to commit an exchange. The paper's
  /// Section 4.2 analysis sets MIN_VAR = 0.
  double min_var = 0.0;

  /// Warm-up length in probe trials before entering maintenance.
  std::size_t max_init_trial = 10;

  /// Base probe interval (seconds). The paper uses 1 minute.
  double init_timer_s = 60.0;

  /// Ablation switches: the Markov-chain timer backoff and the
  /// priority-ordered neighborQ can be disabled independently.
  bool use_backoff = true;
  bool use_priority_queue = true;

  /// Model the negotiation round-trips: a positive-Var exchange commits
  /// only after the walk + probe message latency has elapsed on the
  /// simulated clock, and the plan is re-validated against the
  /// (possibly changed) overlay right before applying — concurrent
  /// exchanges can now conflict, as in a real deployment. Off by
  /// default: the paper's analysis treats exchanges as atomic.
  bool model_message_delays = false;

  double max_timer_s() const {
    return init_timer_s * static_cast<double>(std::size_t{1}
                                              << kMaxBackoffDoublings);
  }
};

}  // namespace propsim
