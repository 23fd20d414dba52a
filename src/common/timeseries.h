// Time-series recorder used to reproduce the paper's "metric vs time" plots.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace propsim {

/// Append-only sequence of (time, value) points with monotone times.
class TimeSeries {
 public:
  struct Point {
    double time;
    double value;
  };

  explicit TimeSeries(std::string name = {}) : name_(std::move(name)) {}

  void record(double time, double value);

  const std::string& name() const { return name_; }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Point& operator[](std::size_t i) const { return points_[i]; }
  const std::vector<Point>& points() const { return points_; }

  double first_value() const;
  double last_value() const;
  /// Value at the latest point with time <= t (step interpolation);
  /// requires at least one point at or before t.
  double value_at(double t) const;

 private:
  std::string name_;
  std::vector<Point> points_;
};

/// Writes aligned series as CSV: time,name1,name2,... using step
/// interpolation at the union of sample times (or a uniform grid).
std::string series_to_csv(const std::vector<TimeSeries>& series,
                          std::size_t grid_points);

}  // namespace propsim
