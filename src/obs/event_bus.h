// Low-overhead structured event bus for simulation observability.
//
// Protocol code emits typed TraceEvents (obs/events.h) into an EventBus;
// the bus stamps simulated time via a pluggable clock, classifies each
// event into the paper's warm-up/maintenance phases, keeps per-phase ×
// per-kind counters and wall-clock phase timers, and optionally streams
// every event through a bounded ring-buffer TraceSink as `propsim.trace`
// v1 JSONL.
//
// The bus always counts; a sink is opt-in at run time. The bus never
// touches the RNG or the event queue, so attaching a sink leaves the
// simulation results bit-identical (tests/test_trace.cpp holds this).
//
// The bus is single-threaded by design: one bus per simulation, owned by
// whoever owns the Scheduler (parallel sweeps give each run its own).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/events.h"

namespace propsim::obs {

/// Always true: the bus has one build mode. Kept only because
/// perfbench/perfbench.cpp and perfbench/traced_run.cpp still call it;
/// delete it together with those calls.
constexpr bool trace_compiled_in() { return true; }

/// Bounded ring-buffer JSONL writer for the `propsim.trace` v1 schema:
/// one header line, then one object per event. Events accumulate in a
/// fixed-capacity buffer and are formatted + written in batches when it
/// wraps, so steady-state emission costs one struct copy; nothing is
/// ever dropped.
class TraceSink {
 public:
  static constexpr int kSchemaVersion = 1;

  explicit TraceSink(std::string path, std::size_t buffer_events = 8192);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// False when the file could not be opened for writing.
  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Writes the schema header line. Called once by EventBus::attach_sink.
  void begin(double phase_boundary_s);

  void append(const TraceEvent& event, TracePhase phase);

  /// Drains the buffer to the file (also called by close and on wrap).
  void flush();

  /// Flushes and closes; further appends are invalid. Idempotent.
  void close();

  /// Event lines written so far, buffered ones included (header excluded).
  std::uint64_t events_written() const { return appended_; }

 private:
  struct Record {
    TraceEvent event;
    TracePhase phase;
  };

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<Record> buffer_;
  std::size_t capacity_;
  std::uint64_t appended_ = 0;
  bool header_written_ = false;
};

/// Everything a finished run's observability adds up to; embedded in
/// ExperimentResult and serialized under the result JSON's "trace" key.
struct TraceSummary {
  double phase_boundary_s = 0.0;
  std::uint64_t events = 0;
  std::array<std::uint64_t, kTracePhaseCount> events_by_phase{};
  std::array<std::array<std::uint64_t, kTraceEventKindCount>,
             kTracePhaseCount>
      by_phase_kind{};
  /// Wall-clock spent while the simulated clock was inside each phase
  /// (attributed at event granularity).
  double warmup_wall_ms = 0.0;
  double maintenance_wall_ms = 0.0;
  /// Sink output, when a sink was attached.
  std::string sink_path;
  std::uint64_t sink_events = 0;

  std::uint64_t count(TracePhase phase, TraceEventKind kind) const {
    return by_phase_kind[static_cast<std::size_t>(phase)]
                        [static_cast<std::size_t>(kind)];
  }
  std::uint64_t count(TraceEventKind kind) const {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
      total += by_phase_kind[p][static_cast<std::size_t>(kind)];
    }
    return total;
  }
};

class EventBus {
 public:
  /// Returns the current simulated time; emitted events are stamped with
  /// it. Typically `[&sim] { return sim.now(); }`.
  using Clock = std::function<double()>;

  EventBus();

  /// No clock => events are stamped 0.0 (build-time emission).
  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Events with time < `boundary_s` are warm-up, the rest maintenance.
  /// The experiment sets this to MAX_INIT_TRIAL x INIT_TIMER for PROP
  /// runs; the default 0 classifies everything as maintenance.
  void set_phase_boundary(double boundary_s) {
    PROPSIM_CHECK(boundary_s >= 0.0);
    boundary_s_ = boundary_s;
  }
  double phase_boundary() const { return boundary_s_; }

  /// Streams every subsequent event into `sink` (not owned; must outlive
  /// the bus or be detached with nullptr). Writes the schema header.
  void attach_sink(TraceSink* sink);

  /// True while a sink is attached. Only a sink reads an event's
  /// `value`, so an emitter may skip computing it when this is false.
  bool has_sink() const { return sink_ != nullptr; }

  /// The one hot call.
  void emit(TraceEventKind kind, std::uint32_t a = 0, std::uint32_t b = 0,
            double value = 0.0, std::uint64_t detail = 0);

  std::uint64_t total_events() const { return total_; }
  std::uint64_t count(TracePhase phase, TraceEventKind kind) const {
    return counters_[static_cast<std::size_t>(phase)]
                    [static_cast<std::size_t>(kind)];
  }
  std::uint64_t count(TraceEventKind kind) const {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
      total += counters_[p][static_cast<std::size_t>(kind)];
    }
    return total;
  }

  /// Stops the wall-clock phase timers (idempotent; later emissions keep
  /// counting but the timers stay frozen at the first finalize).
  void finalize();

  /// Counters + phase timers + sink stats as one value; finalizes.
  TraceSummary summary();

 private:
  using WallClock = std::chrono::steady_clock;

  Clock clock_;
  double boundary_s_ = 0.0;
  TraceSink* sink_ = nullptr;
  std::array<std::array<std::uint64_t, kTraceEventKindCount>,
             kTracePhaseCount>
      counters_{};
  std::uint64_t total_ = 0;
  WallClock::time_point wall_start_;
  WallClock::time_point wall_transition_;
  bool transition_seen_ = false;
  double warmup_wall_ms_ = 0.0;
  double maintenance_wall_ms_ = 0.0;
  bool finalized_ = false;
};

}  // namespace propsim::obs
