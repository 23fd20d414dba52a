// Lookup workload generators.
#pragma once

#include <vector>

#include "common/rng.h"
#include "measure/query.h"

namespace propsim {

/// `count` (src != dst) queries drawn uniformly over the active slots.
std::vector<QueryPair> uniform_queries(const LogicalGraph& graph,
                                       std::size_t count, Rng& rng);

/// Heterogeneity workload (Figure 7): each query's destination is a fast
/// node with probability `fraction_fast_dest`, a slow node otherwise;
/// sources are uniform. Models "the destination of lookup operations
/// will be concentrated on the powerful nodes". When membership churn has
/// emptied one class, every destination comes from the other.
std::vector<QueryPair> biased_queries(const LogicalGraph& graph,
                                      const std::vector<bool>& fast,
                                      double fraction_fast_dest,
                                      std::size_t count, Rng& rng);

}  // namespace propsim
