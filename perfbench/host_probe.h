// Host-speed probe for contention-scaled timings.
//
// On a shared host a co-tenant on the same physical core can slow every
// run of a workload by up to ~2x for tens of seconds at a time, longer
// than one benchmark run. A fixed kernel timed beside each run measures
// that slowdown: host_probe_s() runs a binary-heap Dijkstra over an
// L2-sized graph and then churns a hash map of std::function callbacks,
// the same cache footprint as the simulator's flood kernels and event
// core, and does not depend on propsim code, so a change to propsim never
// moves it. On the reference host, 60 back-to-back chord_day runs spread
// 0.29 (interquartile range / median) raw and 0.07 once each run was
// scaled by kProbeReferenceS / probe; an ALU-only kernel barely slowed.
#pragma once

namespace propsim::perfbench {

/// Probe time on the reference host while uncontended (see
/// perfbench/README.md): a scaled time reads as that host's quiet speed.
constexpr double kProbeReferenceS = 0.0255;

/// Wall time of one probe pass, in seconds (~25 ms uncontended).
double host_probe_s();

}  // namespace propsim::perfbench
