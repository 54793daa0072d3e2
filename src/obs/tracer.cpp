#include "src/obs/tracer.hpp"

#include <algorithm>

#include "src/obs/json.hpp"

namespace msgorder {

namespace {

/// Chrome traces are denominated in microseconds; SimTime is an
/// abstract unit rendered as one millisecond, so typical runs span a
/// readable few seconds.
constexpr double kTimeScale = 1000.0;
/// Track name of the whole simulation ("process" in trace terms).
constexpr const char* kProcessName = "msgorder simulation";

/// Common fields of every emitted trace event.
void event_head(JsonWriter& w, const char* phase, ProcessId tid, double ts) {
  w.begin_object();
  w.kv("ph", phase);
  w.kv("pid", 1);
  w.kv("tid", static_cast<std::uint64_t>(tid));
  w.kv("ts", ts);
}

void write_track_metadata(JsonWriter& w, std::size_t n_tracks) {
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("name", "process_name");
  w.key("args").begin_object().kv("name", kProcessName).end_object();
  w.end_object();
  for (std::size_t p = 0; p < n_tracks; ++p) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", p);
    w.kv("name", "thread_name");
    std::string name = "P";
    name += std::to_string(p);
    w.key("args").begin_object().kv("name", name).end_object();
    w.end_object();
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", p);
    w.kv("name", "thread_sort_index");
    w.key("args").begin_object().kv("sort_index", p).end_object();
    w.end_object();
  }
}

void write_message(JsonWriter& w, MessageId m, const Message& msg,
                   const MessageTimes& mt) {
  std::string label = "x";
  label += std::to_string(m);

  // Lifecycle instants, in the paper's notation.
  struct Point {
    const std::optional<SimTime>& t;
    const char* suffix;
    ProcessId at;
  };
  const Point points[] = {
      {mt.invoke, ".s*", msg.src},
      {mt.send, ".s", msg.src},
      {mt.receive, ".r*", msg.dst},
      {mt.deliver, ".r", msg.dst},
  };
  for (const Point& pt : points) {
    if (!pt.t) continue;
    event_head(w, "i", pt.at, *pt.t * kTimeScale);
    w.kv("s", "t");  // thread-scoped instant
    w.kv("name", label + pt.suffix);
    w.kv("cat", "lifecycle");
    w.end_object();
  }

  // Protocol hold interval at the sender: x.s* -> x.s.
  if (mt.invoke && mt.send) {
    event_head(w, "X", msg.src, *mt.invoke * kTimeScale);
    w.kv("dur", (*mt.send - *mt.invoke) * kTimeScale);
    w.kv("name", label + " hold");
    w.kv("cat", "hold");
    w.key("args")
        .begin_object()
        .kv("msg", m)
        .kv("invoke", *mt.invoke)
        .kv("send", *mt.send)
        .end_object();
    w.end_object();
  }

  // Protocol buffer interval at the receiver: x.r* -> x.r.  The args
  // carry the complete four-event span.
  if (mt.receive && mt.deliver) {
    event_head(w, "X", msg.dst, *mt.receive * kTimeScale);
    w.kv("dur", (*mt.deliver - *mt.receive) * kTimeScale);
    w.kv("name", label + " buffer");
    w.kv("cat", "buffer");
    w.key("args").begin_object();
    w.kv("msg", m);
    w.kv("src", static_cast<std::uint64_t>(msg.src));
    w.kv("dst", static_cast<std::uint64_t>(msg.dst));
    if (mt.invoke) w.kv("invoke", *mt.invoke);
    if (mt.send) w.kv("send", *mt.send);
    w.kv("receive", *mt.receive);
    w.kv("deliver", *mt.deliver);
    if (mt.invoke) w.kv("latency", *mt.deliver - *mt.invoke);
    w.end_object();
    w.end_object();
  }

  // Flow arrow along the causal send -> receive edge.
  if (mt.send && mt.receive) {
    event_head(w, "s", msg.src, *mt.send * kTimeScale);
    w.kv("id", m);
    w.kv("name", label);
    w.kv("cat", "causal");
    w.end_object();
    event_head(w, "f", msg.dst, *mt.receive * kTimeScale);
    w.kv("bp", "e");
    w.kv("id", m);
    w.kv("name", label);
    w.kv("cat", "causal");
    w.end_object();
  }
}

/// An "inhibit" slice per closed hold segment, named after the reason,
/// nested inside the message's hold/buffer slice on the same track.
void write_inhibit(JsonWriter& w, const HoldSegment& seg) {
  event_head(w, "X", seg.process, seg.begin * kTimeScale);
  w.kv("dur", seg.duration() * kTimeScale);
  std::string name = "x";
  name += std::to_string(seg.msg);
  name += " inhibit:";
  name += to_string(seg.reason.kind);
  w.kv("name", name);
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

/// One Chrome "C" (counter) event; Perfetto plots each distinct name as
/// its own counter graph above the process tracks.
void write_counter(JsonWriter& w, const std::string& track, SimTime t,
                   double value) {
  event_head(w, "C", 0, t * kTimeScale);
  w.kv("name", track);
  w.kv("cat", "profile");
  w.key("args").begin_object().kv("value", value).end_object();
  w.end_object();
}

}  // namespace

std::string chrome_trace_json(const Trace& trace, const Observability& obs) {
  const DelayAttribution* attribution = obs.attribution();
  const std::vector<HoldSegment> no_segments;
  const std::vector<HoldSegment>& segments =
      attribution != nullptr ? attribution->closed_segments() : no_segments;

  // One track per process up to the highest one the run touched.
  std::size_t n_tracks = 0;
  for (std::size_t p = 0; p < trace.logs().size(); ++p) {
    if (!trace.logs()[p].empty()) n_tracks = p + 1;
  }
  for (const HoldSegment& seg : segments) {
    n_tracks = std::max<std::size_t>(n_tracks, seg.process + 1);
  }

  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  write_track_metadata(w, n_tracks);
  const std::vector<Message>& universe = trace.universe();
  for (MessageId m = 0; m < universe.size(); ++m) {
    write_message(w, m, universe[m], trace.times(m));
  }
  for (const HoldSegment& seg : segments) write_inhibit(w, seg);
  if (const SimProfile* profile = obs.profile()) {
    for (std::size_t s = 0; s < profile->shard_count(); ++s) {
      const std::string prefix = "shard" + std::to_string(s);
      const std::string entries_track = prefix + ".entries_per_window";
      const std::string heap_track = prefix + ".heap_depth";
      for (const ProfileSample& sample : profile->shard(s).samples) {
        write_counter(w, entries_track, sample.time,
                      static_cast<double>(sample.entries));
        write_counter(w, heap_track, sample.time,
                      static_cast<double>(sample.heap_depth));
      }
    }
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool write_chrome_trace(const std::string& path, const Trace& trace,
                        const Observability& obs, std::string* error) {
  return write_text_file(path, chrome_trace_json(trace, obs), error);
}

}  // namespace msgorder
