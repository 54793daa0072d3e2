#include "src/obs/tracer.hpp"

#include <algorithm>

#include "src/obs/json.hpp"

namespace msgorder {

namespace {

/// Common fields of every emitted trace event.
void event_head(JsonWriter& w, const char* phase, ProcessId tid, double ts) {
  w.begin_object();
  w.kv("ph", phase);
  w.kv("pid", 1);
  w.kv("tid", static_cast<std::uint64_t>(tid));
  w.kv("ts", ts);
}

}  // namespace

SpanTracer::SpanTracer(SpanTracerOptions options)
    : options_(std::move(options)) {}

SpanTracer::Lifecycle& SpanTracer::lifecycle(MessageId m) {
  if (m >= lifecycles_.size()) lifecycles_.resize(m + 1);
  return lifecycles_[m];
}

void SpanTracer::on_event(ProcessId p, SystemEvent e, SimTime t) {
  if (p + 1 > n_processes_) n_processes_ = p + 1;
  Lifecycle& lc = lifecycle(e.msg);
  switch (e.kind) {
    case EventKind::kInvoke:
      lc.invoke = t;
      lc.sender = p;
      break;
    case EventKind::kSend:
      lc.send = t;
      lc.sender = p;
      break;
    case EventKind::kReceive:
      lc.receive = t;
      lc.receiver = p;
      break;
    case EventKind::kDeliver:
      lc.deliver = t;
      lc.receiver = p;
      break;
  }
}

void SpanTracer::on_hold_segment(const HoldSegment& segment) {
  if (segment.process + 1 > n_processes_) n_processes_ = segment.process + 1;
  hold_segments_.push_back(segment);
}

void SpanTracer::add_counter_sample(const std::string& name, SimTime t,
                                    double value) {
  // Few distinct tracks (two per shard): a scan spares a string copy per
  // sample.
  auto it = std::find(counter_tracks_.begin(), counter_tracks_.end(), name);
  if (it == counter_tracks_.end()) {
    counter_tracks_.push_back(name);
    it = counter_tracks_.end() - 1;
  }
  counters_.push_back(
      {static_cast<std::size_t>(it - counter_tracks_.begin()), t, value});
}

std::size_t SpanTracer::complete_span_count() const {
  std::size_t n = 0;
  for (const Lifecycle& lc : lifecycles_) {
    if (lc.invoke && lc.send && lc.receive && lc.deliver) ++n;
  }
  return n;
}

std::string SpanTracer::chrome_trace_json() const {
  const double scale = options_.time_scale;
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  // Track metadata: one named thread per simulated process.
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("name", "process_name");
  w.key("args").begin_object().kv("name", options_.process_name).end_object();
  w.end_object();
  for (std::size_t p = 0; p < n_processes_; ++p) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", p);
    w.kv("name", "thread_name");
    w.key("args")
        .begin_object()
        .kv("name", "P" + std::to_string(p))
        .end_object();
    w.end_object();
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", p);
    w.kv("name", "thread_sort_index");
    w.key("args").begin_object().kv("sort_index", p).end_object();
    w.end_object();
  }

  for (MessageId m = 0; m < lifecycles_.size(); ++m) {
    const Lifecycle& lc = lifecycles_[m];
    const std::string label = "x" + std::to_string(m);

    // Lifecycle instants, in the paper's notation.
    struct Point {
      const std::optional<SimTime>& t;
      const char* suffix;
      ProcessId at;
    };
    const Point points[] = {
        {lc.invoke, ".s*", lc.sender},
        {lc.send, ".s", lc.sender},
        {lc.receive, ".r*", lc.receiver},
        {lc.deliver, ".r", lc.receiver},
    };
    for (const Point& pt : points) {
      if (!pt.t) continue;
      event_head(w, "i", pt.at, *pt.t * scale);
      w.kv("s", "t");  // thread-scoped instant
      w.kv("name", label + pt.suffix);
      w.kv("cat", "lifecycle");
      w.end_object();
    }

    // Protocol hold interval at the sender: x.s* -> x.s.
    if (lc.invoke && lc.send) {
      event_head(w, "X", lc.sender, *lc.invoke * scale);
      w.kv("dur", (*lc.send - *lc.invoke) * scale);
      w.kv("name", label + " hold");
      w.kv("cat", "hold");
      w.key("args")
          .begin_object()
          .kv("msg", m)
          .kv("invoke", *lc.invoke)
          .kv("send", *lc.send)
          .end_object();
      w.end_object();
    }

    // Protocol buffer interval at the receiver: x.r* -> x.r.  The args
    // carry the complete four-event span.
    if (lc.receive && lc.deliver) {
      event_head(w, "X", lc.receiver, *lc.receive * scale);
      w.kv("dur", (*lc.deliver - *lc.receive) * scale);
      w.kv("name", label + " buffer");
      w.kv("cat", "buffer");
      w.key("args").begin_object();
      w.kv("msg", m);
      w.kv("src", static_cast<std::uint64_t>(lc.sender));
      w.kv("dst", static_cast<std::uint64_t>(lc.receiver));
      if (lc.invoke) w.kv("invoke", *lc.invoke);
      if (lc.send) w.kv("send", *lc.send);
      w.kv("receive", *lc.receive);
      w.kv("deliver", *lc.deliver);
      if (lc.invoke) w.kv("latency", *lc.deliver - *lc.invoke);
      w.end_object();
      w.end_object();
    }

    // Flow arrow along the causal send -> receive edge.
    if (lc.send && lc.receive) {
      event_head(w, "s", lc.sender, *lc.send * scale);
      w.kv("id", m);
      w.kv("name", label);
      w.kv("cat", "causal");
      w.end_object();
      event_head(w, "f", lc.receiver, *lc.receive * scale);
      w.kv("bp", "e");
      w.kv("id", m);
      w.kv("name", label);
      w.kv("cat", "causal");
      w.end_object();
    }
  }

  // Attribution segments: an "inhibit" slice per closed hold segment,
  // named after the reason, nested inside the message's hold/buffer
  // slice on the same track (ISSUE 4).
  for (const HoldSegment& seg : hold_segments_) {
    event_head(w, "X", seg.process, seg.begin * scale);
    w.kv("dur", seg.duration() * scale);
    w.kv("name", "x" + std::to_string(seg.msg) +
                     " inhibit:" + to_string(seg.reason.kind));
    w.kv("cat", "inhibit");
    w.key("args").begin_object();
    w.kv("msg", seg.msg);
    w.kv("phase", to_string(seg.phase));
    w.kv("reason", to_string(seg.reason.kind));
    if (seg.reason.blocking_msg) w.kv("blocking_msg", *seg.reason.blocking_msg);
    if (seg.reason.blocking_proc) {
      w.kv("blocking_proc",
           static_cast<std::uint64_t>(*seg.reason.blocking_proc));
    }
    w.end_object();
    w.end_object();
  }

  // Profiler counter tracks (ISSUE 7): Chrome counter events; Perfetto
  // renders each distinct name as its own counter plot.
  for (const CounterSample& cs : counters_) {
    event_head(w, "C", 0, cs.time * scale);
    w.kv("name", counter_tracks_[cs.track]);
    w.kv("cat", "profile");
    w.key("args").begin_object().kv("value", cs.value).end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  return w.take();
}

bool SpanTracer::write_chrome_trace(const std::string& path,
                                    std::string* error) const {
  return write_text_file(path, chrome_trace_json(), error);
}

}  // namespace msgorder
