#include "workload/lookups.h"

namespace propsim {

std::vector<QueryPair> uniform_queries(const LogicalGraph& graph,
                                       std::size_t count, Rng& rng) {
  const auto slots = graph.active_slots();
  PROPSIM_CHECK(slots.size() >= 2);
  std::vector<QueryPair> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const SlotId src =
        slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    SlotId dst;
    do {
      dst = slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    } while (dst == src);
    queries.push_back(QueryPair{src, dst});
  }
  return queries;
}

std::vector<QueryPair> biased_queries(const LogicalGraph& graph,
                                      const std::vector<bool>& fast,
                                      double fraction_fast_dest,
                                      std::size_t count, Rng& rng) {
  PROPSIM_CHECK(fast.size() == graph.slot_count());
  PROPSIM_CHECK(fraction_fast_dest >= 0.0 && fraction_fast_dest <= 1.0);
  const auto slots = graph.active_slots();
  PROPSIM_CHECK(slots.size() >= 2);

  std::vector<SlotId> fast_slots;
  std::vector<SlotId> slow_slots;
  for (const SlotId s : slots) {
    (fast[s] ? fast_slots : slow_slots).push_back(s);
  }

  std::vector<QueryPair> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Churn or crashes can take every peer of one class away; the other
    // class then receives all the queries.
    const bool to_fast = rng.bernoulli(fraction_fast_dest);
    const auto& pool =
        (to_fast && !fast_slots.empty()) || slow_slots.empty() ? fast_slots
                                                               : slow_slots;
    SlotId dst = pool[static_cast<std::size_t>(rng.uniform(pool.size()))];
    SlotId src;
    do {
      src = slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
    } while (src == dst);
    queries.push_back(QueryPair{src, dst});
  }
  return queries;
}

}  // namespace propsim
