// Chrome-trace rendering of a finished run: each message's four-event
// lifecycle
//     x.s* (invoke) -> x.s (send) -> x.r* (receive) -> x.r (deliver)
// read back from the run's Trace and rendered as Chrome Trace Event
// Format JSON, directly loadable in chrome://tracing or Perfetto
// (https://ui.perfetto.dev).  Nothing is recorded twice: the times come
// from Trace::times, the endpoints from the universe, the inhibit slices
// from DelayAttribution's closed-segment log and the counter tracks from
// SimProfile's samples, so any finished run renders.  The rendering is
//   * one track (tid) per simulated process,
//   * a "hold" slice on the sender covering the protocol's send delay
//     (x.s* to x.s) and a "buffer" slice on the receiver covering the
//     delivery delay (x.r* to x.r),
//   * an instant event for each of the four lifecycle points, named in
//     the paper's notation ("x3.s*", "x3.r", ...),
//   * a flow arrow along every causal send->receive edge,
//   * an "inhibit" slice per closed hold segment (attribution on), and
//   * two counter tracks per shard (profiling on).
#pragma once

#include <string>

#include "src/obs/observability.hpp"
#include "src/sim/trace.hpp"

namespace msgorder {

/// The run as a Chrome Trace Event Format document
/// ({"traceEvents": [...], ...}).  One SimTime unit renders as one
/// trace millisecond.  `obs` must be the bundle the run was observed
/// with: its attribution and profile describe the most recent run.
std::string chrome_trace_json(const Trace& trace, const Observability& obs);

/// Serialize chrome_trace_json() to `path`.
bool write_chrome_trace(const std::string& path, const Trace& trace,
                        const Observability& obs,
                        std::string* error = nullptr);

}  // namespace msgorder
