// Version-keyed OverlaySnapshot reuse across convergence ticks and
// live lookups.
//
// Capturing a snapshot is O(V + E) per sample; when the overlay did not
// change between two ticks (or two lookups) the capture would produce a
// byte-identical snapshot, so the flood can reuse the previous one.
// "Did not change" is decided by the caller-supplied version number —
// the experiment derives it from the trace bus's topology-affecting
// event counts (exchange commits, churn joins/leaves/fails, LTM rounds,
// crashes, partition edges), which only ever grow, so an unchanged
// version proves no such event ran since the last capture. Reuse is therefore
// pure caching: it can never change a result, only skip redundant work.
//
// In a PROPSIM_TRACE=OFF build the bus counters stay zero and cannot
// witness changes; the experiment feeds a version that bumps on every
// call instead, so the cache conservatively recaptures (results stay
// bit-identical across build modes; only the reuse counters differ,
// like the trace counters already do).
#pragma once

#include <cstdint>
#include <functional>

#include "measure/overlay_snapshot.h"

namespace propsim {

class SnapshotCache {
 public:
  using CaptureFn = std::function<OverlaySnapshot()>;

  explicit SnapshotCache(CaptureFn capture);

  /// The snapshot for `version`: recaptured when the version differs
  /// from the previous call's (or on first use), reused otherwise. The
  /// reference stays valid until the next at() or invalidate().
  const OverlaySnapshot& at(std::uint64_t version);

  /// Drops the cached snapshot; the next at() recaptures regardless of
  /// version.
  void invalidate() { have_ = false; }

  std::uint64_t captures() const { return captures_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  CaptureFn capture_;
  OverlaySnapshot snap_;
  std::uint64_t version_ = 0;
  bool have_ = false;
  std::uint64_t captures_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace propsim
