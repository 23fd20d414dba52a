#include "obs/event_bus.h"

namespace propsim::obs {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kProbe: return "probe";
    case TraceEventKind::kWalkHop: return "walk-hop";
    case TraceEventKind::kExchangeAttempt: return "exchange-attempt";
    case TraceEventKind::kExchangeCommit: return "exchange-commit";
    case TraceEventKind::kExchangeAbort: return "exchange-abort";
    case TraceEventKind::kFloodHop: return "flood-hop";
    case TraceEventKind::kLookupHop: return "lookup-hop";
    case TraceEventKind::kLookup: return "lookup";
    case TraceEventKind::kJoin: return "join";
    case TraceEventKind::kLeave: return "leave";
    case TraceEventKind::kFail: return "fail";
    case TraceEventKind::kLtmRound: return "ltm-round";
    case TraceEventKind::kLandmarkProbe: return "landmark-probe";
    case TraceEventKind::kFaultLoss: return "fault-loss";
    case TraceEventKind::kFaultCrash: return "fault-crash";
    case TraceEventKind::kPartitionStart: return "partition-start";
    case TraceEventKind::kPartitionEnd: return "partition-end";
    case TraceEventKind::kNegotiationTimeout: return "negotiation-timeout";
    case TraceEventKind::kAdversaryLie: return "adversary-lie";
    case TraceEventKind::kAdversaryDrop: return "adversary-drop";
    case TraceEventKind::kEclipseCapture: return "eclipse-capture";
    case TraceEventKind::kStormStart: return "storm-start";
    case TraceEventKind::kStormEnd: return "storm-end";
    case TraceEventKind::kCount: break;
  }
  return "?";
}

const char* to_string(TracePhase phase) {
  switch (phase) {
    case TracePhase::kWarmup: return "warmup";
    case TracePhase::kMaintenance: return "maintenance";
    case TracePhase::kCount: break;
  }
  return "?";
}

// ------------------------------------------------------------- TraceSink

TraceSink::TraceSink(std::string path, std::size_t buffer_events)
    : path_(std::move(path)),
      capacity_(buffer_events > 0 ? buffer_events : 1) {
  file_ = std::fopen(path_.c_str(), "w");
  buffer_.reserve(capacity_);
}

TraceSink::~TraceSink() { close(); }

void TraceSink::begin(double phase_boundary_s) {
  if (file_ == nullptr || header_written_) return;
  header_written_ = true;
  std::string kinds;
  for (std::size_t k = 0; k < kTraceEventKindCount; ++k) {
    if (!kinds.empty()) kinds += ',';
    kinds += '"';
    kinds += to_string(static_cast<TraceEventKind>(k));
    kinds += '"';
  }
  std::fprintf(file_,
               "{\"schema\":\"propsim.trace\",\"version\":%d,"
               "\"phase_boundary_s\":%.17g,"
               "\"phases\":[\"warmup\",\"maintenance\"],"
               "\"kinds\":[%s]}\n",
               kSchemaVersion, phase_boundary_s, kinds.c_str());
}

void TraceSink::append(const TraceEvent& event, TracePhase phase) {
  if (file_ == nullptr) return;
  buffer_.push_back(Record{event, phase});
  ++appended_;
  if (buffer_.size() >= capacity_) flush();
}

void TraceSink::flush() {
  if (file_ == nullptr) return;
  char line[256];
  for (const Record& r : buffer_) {
    const int n = std::snprintf(
        line, sizeof(line),
        "{\"t\":%.17g,\"kind\":\"%s\",\"phase\":\"%s\",\"a\":%u,\"b\":%u,"
        "\"value\":%.17g,\"detail\":%llu}\n",
        r.event.time, to_string(r.event.kind), to_string(r.phase), r.event.a,
        r.event.b, r.event.value,
        static_cast<unsigned long long>(r.event.detail));
    if (n > 0) {
      std::fwrite(line, 1, static_cast<std::size_t>(n), file_);
    }
  }
  buffer_.clear();
}

void TraceSink::close() {
  if (file_ == nullptr) return;
  flush();
  std::fclose(file_);
  file_ = nullptr;
}

// -------------------------------------------------------------- EventBus

EventBus::EventBus() : wall_start_(WallClock::now()) {}

void EventBus::attach_sink(TraceSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr) sink_->begin(boundary_s_);
}

void EventBus::emit(TraceEventKind kind, std::uint32_t a, std::uint32_t b,
                    double value, std::uint64_t detail) {
  PROPSIM_DCHECK(kind != TraceEventKind::kCount);
  TraceEvent event;
  event.time = clock_ ? clock_() : 0.0;
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.value = value;
  event.detail = detail;
  const TracePhase phase = event.time < boundary_s_
                               ? TracePhase::kWarmup
                               : TracePhase::kMaintenance;
  ++counters_[static_cast<std::size_t>(phase)]
             [static_cast<std::size_t>(kind)];
  ++total_;
  if (phase == TracePhase::kMaintenance && !transition_seen_) {
    transition_seen_ = true;
    wall_transition_ = WallClock::now();
  }
  if (sink_ != nullptr) sink_->append(event, phase);
}

void EventBus::finalize() {
  if (finalized_) return;
  finalized_ = true;
  const WallClock::time_point end = WallClock::now();
  using MsDouble = std::chrono::duration<double, std::milli>;
  if (transition_seen_) {
    warmup_wall_ms_ = MsDouble(wall_transition_ - wall_start_).count();
    maintenance_wall_ms_ = MsDouble(end - wall_transition_).count();
  } else {
    // The run never crossed the boundary: with a boundary set everything
    // was warm-up; without one (boundary 0) it was all maintenance.
    const double total_ms = MsDouble(end - wall_start_).count();
    if (boundary_s_ > 0.0) {
      warmup_wall_ms_ = total_ms;
    } else {
      maintenance_wall_ms_ = total_ms;
    }
  }
  if (sink_ != nullptr) sink_->flush();
}

TraceSummary EventBus::summary() {
  finalize();
  TraceSummary s;
  s.phase_boundary_s = boundary_s_;
  s.events = total_;
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    for (std::size_t k = 0; k < kTraceEventKindCount; ++k) {
      s.by_phase_kind[p][k] = counters_[p][k];
      s.events_by_phase[p] += counters_[p][k];
    }
  }
  s.warmup_wall_ms = warmup_wall_ms_;
  s.maintenance_wall_ms = maintenance_wall_ms_;
  if (sink_ != nullptr) {
    s.sink_path = sink_->path();
    s.sink_events = sink_->events_written();
  }
  return s;
}

}  // namespace propsim::obs
