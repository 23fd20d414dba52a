#include "common/timeseries.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace propsim {

void TimeSeries::record(double time, double value) {
  PROPSIM_CHECK(points_.empty() || time >= points_.back().time);
  points_.push_back(Point{time, value});
}

double TimeSeries::first_value() const {
  PROPSIM_CHECK(!points_.empty());
  return points_.front().value;
}

double TimeSeries::last_value() const {
  PROPSIM_CHECK(!points_.empty());
  return points_.back().value;
}

double TimeSeries::value_at(double t) const {
  PROPSIM_CHECK(!points_.empty());
  PROPSIM_CHECK(t >= points_.front().time);
  // Last point with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double lhs, const Point& rhs) { return lhs < rhs.time; });
  return std::prev(it)->value;
}

std::string series_to_csv(const std::vector<TimeSeries>& series,
                          std::size_t grid_points) {
  PROPSIM_CHECK(!series.empty());
  PROPSIM_CHECK(grid_points >= 2);
  double t0 = std::numeric_limits<double>::infinity();
  double t1 = -std::numeric_limits<double>::infinity();
  for (const TimeSeries& s : series) {
    PROPSIM_CHECK(!s.empty());
    t0 = std::min(t0, s.points().front().time);
    t1 = std::max(t1, s.points().back().time);
  }
  std::ostringstream os;
  os << "time";
  for (const TimeSeries& s : series) os << ',' << s.name();
  os << '\n';
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) /
                              static_cast<double>(grid_points - 1);
    os << t;
    for (const TimeSeries& s : series) {
      os << ',';
      // Series that start later hold their first value before their
      // first sample so columns stay rectangular.
      if (t < s.points().front().time) {
        os << s.first_value();
      } else {
        os << s.value_at(t);
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace propsim
