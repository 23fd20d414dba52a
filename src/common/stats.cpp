#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace propsim {

void RunningStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::quantile(double q) const {
  PROPSIM_CHECK(!values_.empty());
  PROPSIM_CHECK(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (values_.size() == 1) return values_.front();
  const double pos = q * static_cast<double>(values_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= values_.size()) return values_.back();
  return values_[idx] * (1.0 - frac) + values_[idx + 1] * frac;
}

}  // namespace propsim
