#include "src/obs/report.hpp"

#include "src/checker/monitor.hpp"
#include "src/obs/heatmap.hpp"
#include "src/obs/json.hpp"

namespace msgorder {

namespace {

void write_latency_percentiles(JsonWriter& w, const Observability* obs) {
  const Histogram* h = nullptr;
  if (obs != nullptr) {
    const std::string prefix =
        obs->options().label.empty() ? "" : obs->options().label + ".";
    h = obs->metrics().find_histogram(prefix + "delay.latency");
  }
  if (h == nullptr || h->count() == 0) {
    w.key("percentiles").null();
    return;
  }
  w.key("percentiles").begin_object();
  w.kv("p50", h->percentile(50).value());
  w.kv("p90", h->percentile(90).value());
  w.kv("p99", h->percentile(99).value());
  w.end_object();
}

void write_monitor_section(JsonWriter& w, const OnlineMonitor* monitor,
                           const Trace& trace) {
  if (monitor == nullptr) {
    w.key("monitor").null();
    return;
  }
  w.key("monitor").begin_object();
  w.kv("violated", monitor->violated());
  w.kv("violation_count", monitor->violation_count());
  w.kv("events_seen", monitor->events_seen());
  w.kv("events_to_detection", monitor->events_to_detection());
  if (monitor->violated()) {
    w.kv("first_violation_time", monitor->first_violation_time());
    w.kv("specification", monitor->specification().to_string());
    w.key("witness").begin_array();
    const ViolationWitness& witness = *monitor->first_witness();
    for (std::size_t v = 0; v < witness.size(); ++v) {
      const MessageId m = witness[v];
      w.begin_object();
      w.kv("var", monitor->specification().var_name(v));
      w.kv("msg", m);
      if (m < trace.universe().size()) {
        const Message& msg = trace.universe()[m];
        w.kv("src", static_cast<std::uint64_t>(msg.src));
        w.kv("dst", static_cast<std::uint64_t>(msg.dst));
        w.kv("color", msg.color);
      }
      w.end_object();
    }
    w.end_array();
  } else {
    w.key("witness").null();
  }
  w.end_object();
}

}  // namespace

std::string run_report_json(const SimResult& result,
                            const RunReportOptions& options,
                            const Observability* obs,
                            const OnlineMonitor* monitor) {
  const Trace& trace = result.trace;
  std::size_t invoked = 0;
  std::size_t delivered = 0;
  for (MessageId m = 0; m < trace.universe().size(); ++m) {
    const MessageTimes& mt = trace.times(m);
    if (mt.invoke.has_value()) ++invoked;
    if (mt.complete()) ++delivered;
  }

  JsonWriter w;
  w.begin_object();
  w.kv("schema", "msgorder.run_report/1");
  w.kv("protocol", options.protocol);
  w.kv("n_processes", options.n_processes);
  w.kv("seed", options.seed);
  w.kv("completed", result.completed);
  w.kv("error", result.error);

  w.key("messages").begin_object();
  w.kv("universe", trace.universe().size());
  w.kv("invoked", invoked);
  w.kv("delivered", delivered);
  w.end_object();

  w.key("overhead").begin_object();
  w.kv("user_packets", trace.user_packets());
  w.kv("control_packets", trace.control_packets());
  w.kv("control_bytes", trace.control_bytes());
  w.kv("tag_bytes", trace.tag_bytes());
  w.kv("control_packets_per_message", trace.control_packets_per_message());
  w.kv("mean_tag_bytes", trace.mean_tag_bytes());
  w.kv("drops", trace.drops());
  w.kv("retransmissions", trace.retransmissions());
  w.kv("duplicate_arrivals", trace.duplicate_arrivals());
  w.end_object();

  w.key("latency").begin_object();
  w.kv("mean", trace.mean_latency());
  w.kv("max", trace.max_latency());
  w.kv("mean_delivery_delay", trace.mean_delivery_delay());
  write_latency_percentiles(w, obs);
  w.end_object();

  write_monitor_section(w, monitor, trace);

  // Per-message delay attribution (ISSUE 4): where every unit of send /
  // delivery delay went, by hold reason.
  if (obs != nullptr && obs->attribution() != nullptr) {
    w.key("attribution");
    obs->attribution()->write_json(w);
    // Per-channel aggregate of the same table (ISSUE 7): a (blocker,
    // blocked, kind) matrix whose row sums equal the per-message totals.
    w.key("inhibition_heatmap");
    InhibitionHeatmap::build(*obs->attribution()).write_json(w);
  } else {
    w.key("attribution").null();
    w.key("inhibition_heatmap").null();
  }

  // Engine profiler (ISSUE 7): per-shard window/stall/ring counters,
  // present only when ObservabilityOptions::profiling was set.
  if (obs != nullptr && obs->profile() != nullptr) {
    w.key("profile");
    obs->profile()->write_json(w);
  } else {
    w.key("profile").null();
  }

  // Causal trace log (ISSUE 9): where the full history went and what it
  // cost, so log overhead is itself observable.
  if (obs != nullptr && obs->tracelog() != nullptr) {
    w.key("tracelog").begin_object();
    w.kv("path", obs->tracelog()->path());
    w.kv("events_written", obs->tracelog()->events_written());
    w.kv("bytes_written", obs->tracelog()->bytes_written());
    w.end_object();
  } else {
    w.key("tracelog").null();
  }

  if (obs != nullptr) {
    w.key("metrics").begin_object();
    obs->metrics().write_json(w);
    w.end_object();
  } else {
    w.key("metrics").null();
  }

  w.end_object();
  return w.take();
}

bool write_run_report(const std::string& path, const SimResult& result,
                      const RunReportOptions& options,
                      const Observability* obs, const OnlineMonitor* monitor,
                      std::string* error) {
  return write_text_file(path, run_report_json(result, options, obs, monitor),
                         error);
}

bool dump_postmortem_if_red(const std::string& path, const SimResult& result,
                            const Observability* obs,
                            const OnlineMonitor* monitor, std::string* error) {
  if (obs == nullptr || obs->flight_recorder() == nullptr) return false;
  // A copy: the witness note belongs to the dump, not to the recorder
  // or to the already-finished log.
  TraceLogTail tail = *obs->flight_recorder();
  std::string cause;
  if (monitor != nullptr && monitor->violated()) {
    cause = "monitor violation: " + monitor->specification().to_string();
    std::string note = "violation witness:";
    const ViolationWitness& witness = *monitor->first_witness();
    for (std::size_t v = 0; v < witness.size(); ++v) {
      note += " ";
      note += monitor->specification().var_name(v);
      note += "=x";
      note += std::to_string(witness[v]);
    }
    tail.push(note_record(std::move(note), monitor->first_violation_time()));
  } else if (!result.completed) {
    cause = "incomplete run: " + result.error;
  } else {
    return false;  // green run: nothing to explain
  }
  // Cross-reference the causal trace log when one was active: the ring
  // is a bounded window, the log is the full queryable history.
  const std::string tracelog_path =
      obs->tracelog() != nullptr ? obs->tracelog()->path() : "";
  return write_text_file(path, tail.to_json(cause, tracelog_path), error);
}

}  // namespace msgorder
