#include "metrics/metrics.h"

namespace propsim {

RouteLatencyFn chord_router(const OverlayNetwork& net, const ChordRing& ring,
                            const std::vector<double>* processing_delay_ms) {
  return [&net, &ring, processing_delay_ms](const QueryPair& q) {
    // Look up the key owned by the destination slot, so the greedy walk
    // terminates exactly there.
    const auto path = ring.lookup_path(q.src, ring.id_of(q.dst));
    return path_latency(net, path, processing_delay_ms);
  };
}

}  // namespace propsim
