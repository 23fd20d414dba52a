// Measurement query primitives.
//
// They sit below the metrics and workload layers, so the measurement
// engine (measure/measure_engine.h), the routers (metrics/metrics.h)
// and the query samplers (workload/lookups.h) share them without a
// dependency cycle.
#pragma once

#include <functional>

#include "overlay/logical_graph.h"

namespace propsim {

/// One sampled (source, destination) measurement query.
struct QueryPair {
  SlotId src;
  SlotId dst;
};

/// Routing latency of one query, in milliseconds. Functions handed to
/// MeasureEngine::route_latencies/stretch are called from several
/// worker threads at once and must be pure with respect to shared state
/// (every substrate's lookup_path/route_path is const and allocates
/// only locally, so the stock routers qualify).
using RouteLatencyFn = std::function<double(const QueryPair&)>;

/// Routed vs direct latency over a query set (paper Section 4.2).
struct StretchResult {
  double logical_al = 0.0;   // mean routed latency
  double physical_al = 0.0;  // mean direct latency
  double stretch = 0.0;      // logical / physical
};

}  // namespace propsim
