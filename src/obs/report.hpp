// Machine-readable run reports (ISSUE 2 tentpole): serialize a
// SimResult — plus the attached metrics registry and the online
// monitor's first violation witness, when present — to a stable JSON
// schema, so every simulation is an exportable artifact.
//
// Schema "msgorder.run_report/1" (field-by-field docs in DESIGN.md,
// "Observability"):
//
// {
//   "schema": "msgorder.run_report/1",
//   "protocol": "...", "n_processes": N, "seed": S,
//   "completed": true, "error": "",
//   "messages": {"universe": n, "invoked": n, "delivered": n},
//   "overhead": {"user_packets": n, "control_packets": n,
//                "control_bytes": n, "tag_bytes": n,
//                "control_packets_per_message": x, "mean_tag_bytes": x,
//                "drops": n, "retransmissions": n,
//                "duplicate_arrivals": n},
//   "latency": {"mean": x, "max": x, "mean_delivery_delay": x,
//               "percentiles": {"p50": x, "p90": x, "p99": x} | null},
//   "monitor": {"violated": b, "violation_count": n,
//               "events_seen": n, "events_to_detection": n,
//               "first_violation_time": x,
//               "witness": [{"var": "x", "msg": id, "src": p, "dst": p,
//                            "color": c}, ...] | null} | null,
//   "attribution": {"segments": n, "held_by_reason": {reason: t, ...},
//                   "messages": [{"msg": id, "held_send": t,
//                                 "held_delivery": t,
//                                 "segments": [...]}, ...]} | null,
//   "inhibition_heatmap": {"cells": [{"blocker": p | null, "blocked": p,
//                                     "kind": "...", "segments": n,
//                                     "total": t, "mean": t}, ...],
//                          "held_by_kind": {kind: t, ...}} | null,
//   "profile": {...msgorder.profile/1 body (src/obs/profile.hpp)...}
//              | null,
//   "tracelog": {"path": "...", "events_written": n,
//                "bytes_written": n} | null,
//   "metrics": {...msgorder.metrics/1 body...} | null
// }
//
// "inhibition_heatmap" aggregates the attribution table per channel:
// cell (blocker, blocked, kind) sums every hold segment of that kind
// charged to `blocked` whose reason names `blocker` (null blocker =
// reasons without a blocking process).  Cell totals therefore sum to
// attribution.held_by_reason, kind by kind (up to FP summation order).
#pragma once

#include <cstdint>
#include <string>

#include "src/sim/simulator.hpp"

namespace msgorder {

class OnlineMonitor;

struct RunReportOptions {
  /// Name of the protocol under test (free-form label).
  std::string protocol;
  std::size_t n_processes = 0;
  std::uint64_t seed = 0;
};

/// Render the report document.  `obs` and `monitor` are optional; when
/// absent the corresponding sections are null.
std::string run_report_json(const SimResult& result,
                            const RunReportOptions& options,
                            const Observability* obs = nullptr,
                            const OnlineMonitor* monitor = nullptr);

/// run_report_json + write_text_file.
bool write_run_report(const std::string& path, const SimResult& result,
                      const RunReportOptions& options,
                      const Observability* obs = nullptr,
                      const OnlineMonitor* monitor = nullptr,
                      std::string* error = nullptr);

/// Post-mortem dump (ISSUE 4 tentpole): when the run went red — the
/// monitor detected a violation, or the simulation did not complete
/// (event cap, undelivered messages) — and `obs` carries a flight
/// recorder, dump its tail of the record stream to `path` as
/// msgorder.flight_recorder/2 with the cause, plus a final note naming
/// the violation witness when one exists (that note is in the dump
/// only).  Returns true iff a dump was written; a green run or a
/// missing recorder writes nothing.
bool dump_postmortem_if_red(const std::string& path, const SimResult& result,
                            const Observability* obs,
                            const OnlineMonitor* monitor = nullptr,
                            std::string* error = nullptr);

}  // namespace msgorder
