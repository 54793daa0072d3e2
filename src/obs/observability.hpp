// The per-run observability bundle (ISSUE 2 tentpole): one object that
// owns a metrics registry wired with the simulator's standard
// instruments plus the optional attribution table, engine profiler and
// record writer (the trace log file and its in-memory tail, the flight
// recorder).  Attach it via
// SimOptions::observability; the default (nullptr) keeps the simulator
// on its zero-cost path (a single pointer test per event, verified to
// cost < 2% on bench_protocol_overhead).
//
//   Observability obs({.label = "fifo"});
//   SimOptions sopts;
//   sopts.observability = &obs;
//   const SimResult result = simulate(workload, factory, n, sopts);
//   obs.metrics().to_json();                            // metrics dump
//   write_chrome_trace("run.json", result.trace, obs);  // open in Perfetto
#pragma once

#include <array>
#include <optional>
#include <string>

#include "src/obs/attribution.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profile.hpp"
#include "src/obs/tracelog.hpp"

namespace msgorder {

/// The simulator's standard instruments, registered on a MetricsRegistry.
/// All pointers are non-owning and stable (registry storage is
/// node-based).  Metric names are listed in DESIGN.md ("Observability").
struct SimInstruments {
  Counter* events = nullptr;              // sim.events
  Counter* timer_fires = nullptr;         // sim.timer_fires
  Counter* user_packets = nullptr;        // net.user_packets
  Counter* control_packets = nullptr;     // net.control_packets
  Counter* control_bytes = nullptr;       // net.control_bytes
  Counter* tag_bytes = nullptr;           // net.tag_bytes
  Counter* drops = nullptr;               // net.drops
  Counter* retransmissions = nullptr;     // net.retransmissions
  Counter* duplicate_arrivals = nullptr;  // net.duplicate_arrivals
  Histogram* latency = nullptr;           // delay.latency (x.s* -> x.r)
  Histogram* send_delay = nullptr;        // delay.send (x.s* -> x.s)
  Histogram* delivery_delay = nullptr;    // delay.delivery (x.r* -> x.r)
  Gauge* buffered_depth = nullptr;        // sim.buffered_depth (x.r* seen,
                                          // x.r pending, across processes)
  Counter* hold_segments = nullptr;       // hold.segments (closed segments)
  Counter* tracelog_events = nullptr;     // tracelog.events_written
  Counter* tracelog_bytes = nullptr;      // tracelog.bytes_written
  /// Per-reason hold-time histograms, hold.<reason> (one closed
  /// attribution segment = one sample); index by HoldKind, slot
  /// kNone unused (ISSUE 4).
  std::array<Histogram*, kHoldKindCount> hold_time{};

  /// Register the standard instruments on `registry`.  Non-empty
  /// `label` (e.g. the protocol under test) becomes a "<label>." name
  /// prefix so several runs can share one registry.
  static SimInstruments create(MetricsRegistry& registry,
                               const std::string& label = "");
};

struct ObservabilityOptions {
  /// Collect per-message inhibition attribution (ISSUE 4): hold
  /// reasons reported by the protocols become per-reason histograms,
  /// Chrome-trace inhibit slices, and the run report's attribution
  /// table.  On by default — attribution is the point of attaching
  /// observability (metrics are always collected once one is attached
  /// at all); the zero-cost path is "no Observability at all".
  bool attribution = true;
  /// Collect the engine profiler's per-shard window/stall/ring/barrier
  /// counters (ISSUE 7; off by default).  The profile describes the most
  /// recent run and is embedded in msgorder.run_report/1 as the
  /// "profile" section; its per-window samples render as Perfetto
  /// counter tracks in chrome_trace_json (src/obs/tracer.hpp).
  bool profiling = false;
  /// Keep the last TraceLogTail::kCapacity trace log records in memory,
  /// with or without a log file, dumped post-mortem on red runs (off by
  /// default).
  bool flight_recorder = false;
  /// Write the causal trace log (msgorder.tracelog/1) to this path;
  /// empty keeps the log off and the engine on its zero-cost path
  /// (enforced by bench_protocol_overhead --overhead-guard).  Every
  /// shard count emits the identical record stream for the same run —
  /// query and diff logs with tools/msgorder_query.cpp.
  std::string tracelog = {};
  /// Metric name prefix, typically the protocol under test.
  std::string label = {};
};

class Observability {
 public:
  explicit Observability(ObservabilityOptions options = {});

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  SimInstruments& instruments() { return instruments_; }
  const SimInstruments& instruments() const { return instruments_; }

  /// nullptr unless attribution was enabled AND a run attached (the
  /// simulator calls begin_run with the universe size; the table always
  /// describes the most recent run).
  DelayAttribution* attribution() {
    return attribution_ ? &*attribution_ : nullptr;
  }
  const DelayAttribution* attribution() const {
    return attribution_ ? &*attribution_ : nullptr;
  }

  /// nullptr unless the flight recorder was enabled in the options.
  const TraceLogTail* flight_recorder() const {
    return writer_ ? writer_->tail() : nullptr;
  }

  /// nullptr unless profiling was enabled in the options.  The engines
  /// reset it (SimProfile::begin_run) with the run's topology; after the
  /// run it holds that run's counters.
  SimProfile* profile() { return profile_ ? &*profile_ : nullptr; }
  const SimProfile* profile() const {
    return profile_ ? &*profile_ : nullptr;
  }

  /// nullptr unless a tracelog path was set in the options.  The engines
  /// rewrite the file each run (like the attribution table, it describes
  /// the most recent run).
  TraceLogWriter* tracelog() {
    return options_.tracelog.empty() ? nullptr : record_writer();
  }
  const TraceLogWriter* tracelog() const {
    return options_.tracelog.empty() ? nullptr : &*writer_;
  }

  /// The one writer every record goes through: built when a tracelog
  /// path is set or the flight recorder is armed, nullptr otherwise.
  TraceLogWriter* record_writer() { return writer_ ? &*writer_ : nullptr; }

  /// Called by the simulator when a run attaches: sizes a fresh
  /// attribution table to the run's message universe (when enabled).
  /// The flight recorder deliberately persists across runs — its whole
  /// point is to retain the most recent records.
  void begin_run(std::size_t n_messages);

  const ObservabilityOptions& options() const { return options_; }

 private:
  ObservabilityOptions options_;
  MetricsRegistry metrics_;
  SimInstruments instruments_;
  std::optional<DelayAttribution> attribution_;
  std::optional<SimProfile> profile_;
  std::optional<TraceLogWriter> writer_;
};

}  // namespace msgorder
