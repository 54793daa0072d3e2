// Causal span tracer (ISSUE 2 tentpole): records each message's
// four-event lifecycle
//     x.s* (invoke) -> x.s (send) -> x.r* (receive) -> x.r (deliver)
// from the simulator's observer stream and renders it as Chrome Trace
// Event Format JSON, directly loadable in chrome://tracing or Perfetto
// (https://ui.perfetto.dev).  The rendering is
//   * one track (tid) per simulated process,
//   * a "hold" slice on the sender covering the protocol's send delay
//     (x.s* to x.s) and a "buffer" slice on the receiver covering the
//     delivery delay (x.r* to x.r),
//   * an instant event for each of the four lifecycle points, named in
//     the paper's notation ("x3.s*", "x3.r", ...),
//   * a flow arrow along every causal send->receive edge.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/attribution.hpp"
#include "src/poset/event.hpp"
#include "src/protocols/protocol.hpp"

namespace msgorder {

struct SpanTracerOptions {
  /// Chrome traces are denominated in microseconds; SimTime is an
  /// abstract unit.  One SimTime unit is rendered as this many trace
  /// microseconds (default: 1 unit = 1ms so typical runs span a
  /// readable few seconds).
  double time_scale = 1000.0;
  /// Track name of the whole simulation ("process" in trace terms).
  std::string process_name = "msgorder simulation";
};

class SpanTracer {
 public:
  explicit SpanTracer(SpanTracerOptions options = {});

  /// Observer entry point (signature matches SimObserver; attach via
  /// SimOptions::observability or ObserverMux::add).
  void on_event(ProcessId p, SystemEvent e, SimTime t);

  /// Attribution entry point (ISSUE 4): a closed hold segment becomes
  /// an "inhibit" slice on the holding process's track, named after the
  /// reason, nested inside the message's hold/buffer slice.
  void on_hold_segment(const HoldSegment& segment);

  /// Profiler entry point (ISSUE 7): one sample on counter track
  /// `name`, rendered as a Chrome "C" (counter) event — Perfetto plots
  /// each track as a counter graph above the process tracks.
  void add_counter_sample(const std::string& name, SimTime t, double value);

  std::size_t counter_sample_count() const { return counters_.size(); }

  std::size_t hold_segment_count() const { return hold_segments_.size(); }

  /// Number of messages whose full four-event lifecycle was observed.
  std::size_t complete_span_count() const;
  /// Number of messages with at least one observed event.
  std::size_t message_count() const { return lifecycles_.size(); }
  std::size_t process_count() const { return n_processes_; }

  /// The trace as a Chrome Trace Event Format document
  /// ({"traceEvents": [...], ...}).
  std::string chrome_trace_json() const;

  /// Serialize chrome_trace_json() to `path`.
  bool write_chrome_trace(const std::string& path,
                          std::string* error = nullptr) const;

 private:
  struct Lifecycle {
    std::optional<SimTime> invoke, send, receive, deliver;
    ProcessId sender = 0;
    ProcessId receiver = 0;
  };

  struct CounterSample {
    std::size_t track = 0;  // index into counter_tracks_
    SimTime time = 0;
    double value = 0;
  };

  Lifecycle& lifecycle(MessageId m);

  SpanTracerOptions options_;
  std::vector<Lifecycle> lifecycles_;  // indexed by MessageId
  std::vector<HoldSegment> hold_segments_;
  std::vector<CounterSample> counters_;
  std::vector<std::string> counter_tracks_;  // distinct counter names
  std::size_t n_processes_ = 0;        // max observed process id + 1
};

}  // namespace msgorder
