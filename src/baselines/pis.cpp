#include "baselines/pis.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace propsim {

std::vector<std::uint32_t> landmark_ordering(NodeId host,
                                             std::span<const NodeId> landmarks,
                                             const LatencyOracle& oracle,
                                             obs::EventBus* trace) {
  if (trace != nullptr) {
    for (std::size_t i = 0; i < landmarks.size(); ++i) {
      trace->emit(obs::TraceEventKind::kLandmarkProbe, host, landmarks[i],
                  oracle.latency(host, landmarks[i]));
    }
  }
  std::vector<std::uint32_t> order(landmarks.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double la = oracle.latency(host, landmarks[a]);
    const double lb = oracle.latency(host, landmarks[b]);
    if (la != lb) return la < lb;
    return a < b;
  });
  return order;
}

std::vector<DhtId> pis_identifiers(std::span<const NodeId> hosts,
                                   std::span<const NodeId> landmarks,
                                   const LatencyOracle& oracle, Rng& rng,
                                   obs::EventBus* trace) {
  PROPSIM_CHECK(!hosts.empty());
  PROPSIM_CHECK(!landmarks.empty());
  const std::size_t n = hosts.size();

  struct Keyed {
    std::vector<std::uint32_t> ordering;
    std::uint64_t tiebreak;
    std::size_t index;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keyed.push_back(Keyed{landmark_ordering(hosts[i], landmarks, oracle, trace),
                          rng.next(), i});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.ordering != b.ordering) return a.ordering < b.ordering;
    return a.tiebreak < b.tiebreak;
  });

  // Evenly spaced ids in bin order; a small deterministic offset per
  // position keeps ids unique and non-zero-aligned.
  std::vector<DhtId> ids(n);
  const DhtId gap = ~DhtId{0} / n;
  for (std::size_t pos = 0; pos < n; ++pos) {
    ids[keyed[pos].index] = static_cast<DhtId>(pos) * gap + gap / 2;
  }
  return ids;
}

}  // namespace propsim
