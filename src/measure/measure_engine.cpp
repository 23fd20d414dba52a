#include "measure/measure_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <limits>
#include <numeric>
#include <thread>

namespace propsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// flood_snapshot's bucket width is W = 2^e ms: the largest power of two
// <= the snapshot's minimum edge latency, clamped to [2^-4, 2^6] ms. The
// clamp bounds the ring for degenerate snapshots (zero or sub-62.5us
// edges, or none at all). When W <= every edge cost, a relaxation never
// lands in the bucket being drained, so each slot settles on its first
// pop (classic Dial). Otherwise a slot improved inside the open bucket
// is filed again and the bucket drains to a fixpoint.
constexpr int kMinBucketExp = -4;
constexpr int kMaxBucketExp = 6;

int bucket_exponent(double min_edge_ms) {
  if (!(min_edge_ms > 0.0)) return kMinBucketExp;  // zero-cost edges
  return std::clamp(std::ilogb(min_edge_ms), kMinBucketExp, kMaxBucketExp);
}

/// Bucket indices saturate here, so no finite distance overflows the
/// integer conversion; everything past it shares one bucket.
constexpr std::uint64_t kFarBucket = std::uint64_t{1} << 62;

/// Ring ceiling. An entry further ahead of the drain than this is filed
/// in the farthest slot instead: it is popped early, which costs extra
/// relaxations but not correctness (see flood_snapshot).
constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 16;

/// Regrows the circular ring of bucket heads to hold `needed` buckets
/// ahead of `cur`, keeping every pending bucket at its absolute index.
void grow_ring(std::vector<std::uint32_t>& heads, std::uint64_t cur,
               std::uint64_t needed) {
  std::vector<std::uint32_t> grown(std::bit_ceil(needed),
                                   MeasureScratch::kNoEntry);
  for (std::uint64_t b = cur; b < cur + heads.size(); ++b) {
    grown[b & (grown.size() - 1)] = heads[b & (heads.size() - 1)];
  }
  heads = std::move(grown);
}
}  // namespace

void MeasureScratch::begin(std::size_t n) {
  dist.assign(n, kInf);
  if (queued.size() != n) queued.assign(n, 0);
  entries.clear();
}

double MeasureScratch::distance(SlotId v) const {
  PROPSIM_DCHECK(v < dist.size());
  return dist[v];
}

void flood_snapshot(const OverlaySnapshot& snap, SlotId source,
                    const std::vector<double>* processing_delay_ms,
                    MeasureScratch& scratch, SlotId target) {
  PROPSIM_CHECK(snap.is_active(source));
  PROPSIM_CHECK(target == kInvalidSlot || target < snap.slot_count());
  if (processing_delay_ms != nullptr) {
    PROPSIM_CHECK(processing_delay_ms->size() == snap.slot_count());
  }
  scratch.begin(snap.slot_count());
  auto& dist = scratch.dist;
  auto& queued = scratch.queued;
  auto& heads = scratch.heads;  // all empty: the last flood drained them
  auto& entries = scratch.entries;
  // Multiplying by a power of two is exact, so a distance's bucket is
  // exactly floor(d / W).
  const double inv_width =
      std::ldexp(1.0, -bucket_exponent(snap.min_edge_ms()));
  auto bucket_of = [inv_width](double d) {
    const double q = d * inv_width;
    return q < static_cast<double>(kFarBucket) ? static_cast<std::uint64_t>(q)
                                               : kFarBucket;
  };
  std::uint64_t cur = 0;    // absolute index of the bucket being drained
  std::size_t pending = 0;  // filed entries not yet popped, stale included
  auto file = [&](SlotId v, std::uint64_t b) {
    PROPSIM_DCHECK(b >= cur);
    const std::uint64_t ahead = std::min(b - cur, kMaxBuckets - 1);
    if (ahead >= heads.size()) grow_ring(heads, cur, ahead + 1);
    std::uint32_t& head = heads[(cur + ahead) & (heads.size() - 1)];
    entries.push_back({v, head});
    head = static_cast<std::uint32_t>(entries.size() - 1);
    queued[v] = 1;
    ++pending;
  };

  dist[source] = 0.0;
  file(source, 0);
  while (pending > 0) {
    // Pop until the open bucket is empty, re-reading its head each time:
    // relaxations may file into it, and a ring growth moves it.
    for (;;) {
      std::uint32_t& head = heads[cur & (heads.size() - 1)];
      if (head == MeasureScratch::kNoEntry) break;
      const SlotId u = entries[head].slot;
      head = entries[head].next;
      --pending;
      // Only a queued slot is processed, always at its current distance,
      // so pop order changes the work done but never the fixpoint the
      // drain stops at.
      if (queued[u] == 0) continue;  // stale: processed since filed
      queued[u] = 0;
      const double du = dist[u];
      const auto targets = snap.targets(u);
      const auto lats = snap.latencies(u);
      for (std::size_t e = 0; e < targets.size(); ++e) {
        const SlotId v = targets[e];
        // Same per-edge arithmetic as the live flood: lats[e] is the
        // identical slot_latency(u, v) double, precomputed at capture.
        double cost = lats[e];
        if (processing_delay_ms != nullptr) {
          cost += (*processing_delay_ms)[v];
        }
        const double candidate = du + cost;
        // Unreached slots hold +inf, which no candidate (+inf included)
        // beats, so +inf is never filed and reads back as +inf.
        if (!(candidate < dist[v])) continue;
        const std::uint64_t b = bucket_of(candidate);
        // A queued slot whose bucket did not change keeps its entry.
        const bool refile = queued[v] == 0 || b != bucket_of(dist[v]);
        dist[v] = candidate;
        if (refile) file(v, b);
      }
    }
    // Bucket cur is drained, so every pending entry's slot sits at a
    // distance >= (cur + 1) * W, and costs >= 0 with monotone addition
    // keep every later candidate there too: a target below that bound
    // is final. Leave the scratch as a full flood would: nothing
    // queued, every ring head empty.
    if (target != kInvalidSlot && bucket_of(dist[target]) <= cur) {
      for (const auto& entry : entries) queued[entry.slot] = 0;
      std::fill(heads.begin(), heads.end(), MeasureScratch::kNoEntry);
      return;
    }
    ++cur;
  }
}

MeasureEngine::MeasureEngine(std::size_t threads, MeasureMode mode) {
  PROPSIM_CHECK(mode == MeasureMode::kExact);
  if (threads == kAutoThreads) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  threads_ = std::max<std::size_t>(threads, 1);
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  scratch_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    scratch_.push_back(std::make_unique<MeasureScratch>());
  }
}

void MeasureEngine::for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t chunks = std::min(threads_, count);
  auto bounds = [&](std::size_t c) {
    return std::pair{c * count / chunks, (c + 1) * count / chunks};
  };
  if (pool_ == nullptr || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = bounds(c);
      body(c, begin, end);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [begin, end] = bounds(c);
    futures.push_back(pool_->submit([&body, c, begin, end] {
      body(c, begin, end);
    }));
  }
  for (auto& f : futures) f.get();  // rethrows the first worker failure
}

void MeasureEngine::run_lookup(const OverlaySnapshot& snap,
                               std::span<const QueryPair> queries,
                               const std::vector<double>* processing_delay_ms,
                               std::vector<double>& out) {
  // One Dijkstra per distinct source: order query indices by source,
  // then chunk the contiguous same-source runs across the workers. Each
  // worker writes only out[idx] for its own runs' indices. order_ and
  // runs_ are member buffers so a steady-state sweep reallocates
  // nothing.
  order_.resize(queries.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (queries[a].src != queries[b].src) {
                return queries[a].src < queries[b].src;
              }
              return a < b;
            });
  runs_.clear();
  for (std::size_t i = 0; i < order_.size();) {
    std::size_t j = i + 1;
    while (j < order_.size() &&
           queries[order_[j]].src == queries[order_[i]].src) {
      ++j;
    }
    runs_.push_back(Run{i, j});
    i = j;
  }

  stats_.exact_floods += runs_.size();

  out.assign(queries.size(), 0.0);
  for_chunks(runs_.size(), [&](std::size_t chunk, std::size_t begin,
                               std::size_t end) {
    MeasureScratch& scratch = *scratch_[chunk];
    for (std::size_t r = begin; r < end; ++r) {
      const Run& run = runs_[r];
      flood_snapshot(snap, queries[order_[run.begin]].src,
                     processing_delay_ms, scratch);
      for (std::size_t k = run.begin; k < run.end; ++k) {
        out[order_[k]] = scratch.distance(queries[order_[k]].dst);
      }
    }
  });
}

std::vector<double> MeasureEngine::lookup_latencies(
    const OverlaySnapshot& snap, std::span<const QueryPair> queries,
    const std::vector<double>* processing_delay_ms) {
  std::vector<double> out;
  run_lookup(snap, queries, processing_delay_ms, out);
  return out;
}

double MeasureEngine::average_lookup_latency(
    const OverlaySnapshot& snap, std::span<const QueryPair> queries,
    const std::vector<double>* processing_delay_ms) {
  PROPSIM_CHECK(!queries.empty());
  run_lookup(snap, queries, processing_delay_ms, avg_out_);
  double sum = 0.0;
  for (const double v : avg_out_) sum += v;
  return sum / static_cast<double>(avg_out_.size());
}

std::vector<double> MeasureEngine::route_latencies(
    std::span<const QueryPair> queries, const RouteLatencyFn& fn) {
  std::vector<double> out(queries.size(), 0.0);
  for_chunks(queries.size(), [&](std::size_t /*chunk*/, std::size_t begin,
                                 std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(queries[i]);
  });
  return out;
}

double MeasureEngine::average_route_latency(
    std::span<const QueryPair> queries, const RouteLatencyFn& fn) {
  PROPSIM_CHECK(!queries.empty());
  const auto lat = route_latencies(queries, fn);
  double sum = 0.0;
  for (const double v : lat) sum += v;
  return sum / static_cast<double>(lat.size());
}

std::vector<double> MeasureEngine::direct_latencies(
    const OverlayNetwork& net, std::span<const QueryPair> queries) {
  std::vector<double> out(queries.size(), 0.0);
  for_chunks(queries.size(), [&](std::size_t /*chunk*/, std::size_t begin,
                                 std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = net.slot_latency(queries[i].src, queries[i].dst);
    }
  });
  return out;
}

double MeasureEngine::average_direct_latency(
    const OverlayNetwork& net, std::span<const QueryPair> queries) {
  PROPSIM_CHECK(!queries.empty());
  const auto lat = direct_latencies(net, queries);
  double sum = 0.0;
  for (const double v : lat) sum += v;
  return sum / static_cast<double>(lat.size());
}

StretchResult MeasureEngine::stretch(const OverlayNetwork& net,
                                     std::span<const QueryPair> queries,
                                     const RouteLatencyFn& fn) {
  StretchResult r;
  r.logical_al = average_route_latency(queries, fn);
  r.physical_al = average_direct_latency(net, queries);
  PROPSIM_CHECK(r.physical_al > 0.0);
  r.stretch = r.logical_al / r.physical_al;
  return r;
}

}  // namespace propsim
