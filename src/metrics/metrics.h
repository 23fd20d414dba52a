// Routers for the paper's stretch metric (Section 4.2). Every metric
// itself — average lookup latency, average latency (AL) and stretch —
// is computed by MeasureEngine (measure/measure_engine.h); query sets
// come from workload/lookups.h.
#pragma once

#include <vector>

#include "chord/chord_ring.h"
#include "measure/query.h"
#include "overlay/overlay_network.h"

namespace propsim {

/// Router over a Chord ring under the overlay's current placement.
RouteLatencyFn chord_router(const OverlayNetwork& net, const ChordRing& ring,
                            const std::vector<double>* processing_delay_ms =
                                nullptr);

}  // namespace propsim
