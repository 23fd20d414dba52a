// Streaming and batch statistics used across metrics, tests and benches.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace propsim {

/// Welford's online algorithm: numerically stable mean/variance plus
/// min/max, in O(1) space.
class RunningStats {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch container for quantiles; keeps all samples.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  /// Quantile in [0, 1] by linear interpolation; requires non-empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const { return values_; }
  void clear() { values_.clear(); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace propsim
