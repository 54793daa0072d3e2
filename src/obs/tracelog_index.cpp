#include "src/obs/tracelog_index.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <map>

#include "src/obs/json.hpp"

namespace msgorder {

namespace {

std::string fmt_time(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", t);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// Compare two records; empty string when equal, else the name of the
/// first differing aspect (the diverge `field`).
std::string describe_difference(const TraceLogRecord& a,
                                const TraceLogRecord& b) {
  if (a.type != b.type) return "type";
  if (a.time != b.time) return "time";
  switch (a.type) {
    case TraceLogRecord::Type::kEvent:
      if (a.event != b.event) return "event";
      if (a.process != b.process) return "process";
      if (a.peer != b.peer) return "peer";
      if (a.color != b.color) return "color";
      if (a.tiebreak != b.tiebreak) return "tiebreak";
      if (a.lamport != b.lamport) return "lamport";
      return "";
    case TraceLogRecord::Type::kHold:
      if (a.held_msg != b.held_msg || a.process != b.process ||
          a.reason != b.reason || a.tiebreak != b.tiebreak) {
        return "hold";
      }
      return "";
    case TraceLogRecord::Type::kNote:
      return a.note == b.note ? "" : "note";
  }
  return "";
}

void write_record_json(JsonWriter& w, const TraceLogRecord& rec) {
  w.begin_object();
  switch (rec.type) {
    case TraceLogRecord::Type::kEvent:
      w.kv("type", "event");
      w.kv("msg", static_cast<std::uint64_t>(rec.event.msg));
      w.kv("kind", kind_name(rec.event.kind));
      w.kv("process", static_cast<std::uint64_t>(rec.process));
      w.kv("peer", static_cast<std::uint64_t>(rec.peer));
      w.kv("color", static_cast<std::int64_t>(rec.color));
      w.kv("time", rec.time);
      w.kv("tiebreak", rec.tiebreak);
      w.kv("lamport", rec.lamport);
      break;
    case TraceLogRecord::Type::kHold: {
      w.kv("type", "hold");
      w.kv("msg", static_cast<std::uint64_t>(rec.held_msg));
      w.kv("process", static_cast<std::uint64_t>(rec.process));
      w.kv("kind", to_string(rec.reason.kind));
      w.key("blocking_msg");
      if (rec.reason.blocking_msg.has_value()) {
        w.value(static_cast<std::uint64_t>(*rec.reason.blocking_msg));
      } else {
        w.null();
      }
      w.key("blocking_proc");
      if (rec.reason.blocking_proc.has_value()) {
        w.value(static_cast<std::uint64_t>(*rec.reason.blocking_proc));
      } else {
        w.null();
      }
      w.kv("time", rec.time);
      w.kv("tiebreak", rec.tiebreak);
      break;
    }
    case TraceLogRecord::Type::kNote:
      w.kv("type", "note");
      w.kv("time", rec.time);
      w.kv("text", rec.note);
      break;
  }
  w.end_object();
}

void write_header_json(JsonWriter& w, const TraceLogHeader& h) {
  w.begin_object();
  w.kv("engine", h.engine);
  w.kv("protocol", h.protocol);
  w.kv("n_processes", static_cast<std::uint64_t>(h.n_processes));
  w.kv("n_messages", static_cast<std::uint64_t>(h.n_messages));
  w.kv("seed", h.seed);
  w.kv("shards", static_cast<std::uint64_t>(h.shards));
  w.kv("workers", static_cast<std::uint64_t>(h.workers));
  w.kv("lookahead", h.lookahead);
  w.end_object();
}

JsonWriter query_json_head(std::string_view subcommand) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "msgorder.query/1");
  w.kv("subcommand", subcommand);
  return w;
}

QueryOutput query_error(std::string_view subcommand, const std::string& error,
                        int exit_code = 2) {
  QueryOutput out;
  out.exit_code = exit_code;
  out.text = "error: " + error + "\n";
  JsonWriter w = query_json_head(subcommand);
  w.kv("error", error);
  w.end_object();
  out.json = w.take();
  return out;
}

}  // namespace

TraceLogIndex TraceLogIndex::build(const LoadedTraceLog& log) {
  TraceLogIndex index;
  index.log_ = &log;
  const std::size_t n = log.events.size();
  index.succ_.resize(n);
  index.pred_.resize(n);
  std::map<ProcessId, std::uint32_t> last_at;
  std::map<MessageId, std::uint32_t> send_of;
  const auto add_edge = [&index](std::uint32_t from, std::uint32_t to) {
    index.succ_[from].push_back(to);
    index.pred_[to].push_back(from);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const TraceLogRecord& rec = log.records[log.events[i]];
    const auto ei = static_cast<std::uint32_t>(i);
    if (const auto it = last_at.find(rec.process); it != last_at.end()) {
      add_edge(it->second, ei);
    }
    last_at[rec.process] = ei;
    if (rec.event.kind == EventKind::kSend) {
      send_of[rec.event.msg] = ei;
    } else if (rec.event.kind == EventKind::kReceive) {
      if (const auto it = send_of.find(rec.event.msg); it != send_of.end()) {
        add_edge(it->second, ei);
      }
    }
  }
  return index;
}

std::optional<std::size_t> TraceLogIndex::find_event(MessageId msg,
                                                     EventKind kind) const {
  for (std::size_t i = 0; i < event_count(); ++i) {
    const TraceLogRecord& rec = event(i);
    if (rec.event.msg == msg && rec.event.kind == kind) return i;
  }
  return std::nullopt;
}

std::vector<std::size_t> TraceLogIndex::bfs(std::size_t ev,
                                            bool forward) const {
  const auto& adj = forward ? succ_ : pred_;
  std::vector<char> seen(event_count(), 0);
  std::deque<std::size_t> frontier{ev};
  seen[ev] = 1;
  std::vector<std::size_t> out;
  while (!frontier.empty()) {
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    out.push_back(cur);
    for (const std::uint32_t nxt : adj[cur]) {
      if (seen[nxt] == 0) {
        seen[nxt] = 1;
        frontier.push_back(nxt);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> TraceLogIndex::causal_past(std::size_t ev) const {
  return bfs(ev, false);
}

std::vector<std::size_t> TraceLogIndex::causal_future(std::size_t ev) const {
  return bfs(ev, true);
}

CutResult cut_at(const TraceLogIndex& index, SimTime t) {
  const LoadedTraceLog& log = index.log();
  CutResult cut;
  cut.at = t;
  std::size_t n_processes = log.header.n_processes;
  for (std::size_t i = 0; i < index.event_count(); ++i) {
    n_processes = std::max<std::size_t>(n_processes, index.event(i).process + 1);
  }
  cut.frontier.assign(n_processes, std::nullopt);
  std::map<MessageId, SimTime> sent_at;
  std::map<MessageId, SimTime> received_at;
  for (std::size_t i = 0; i < index.event_count(); ++i) {
    const TraceLogRecord& rec = index.event(i);
    if (rec.event.kind == EventKind::kSend) sent_at[rec.event.msg] = rec.time;
    if (rec.event.kind == EventKind::kReceive) {
      received_at[rec.event.msg] = rec.time;
    }
    if (rec.time > t) continue;
    ++cut.events_in_cut;
    cut.frontier[rec.process] = i;
    // A cut by time is consistent iff no causal edge crosses it
    // backwards; verify against the direct predecessors rather than
    // assuming the writer ordered times correctly.
    for (const std::uint32_t p : index.preds(i)) {
      if (index.event(p).time > t) cut.consistent = false;
    }
  }
  for (const auto& [msg, send_time] : sent_at) {
    if (send_time > t) continue;
    const auto it = received_at.find(msg);
    if (it == received_at.end() || it->second > t) {
      cut.in_flight.push_back(msg);
    }
  }
  return cut;
}

WhyChain why_blocked(const LoadedTraceLog& log, MessageId msg) {
  // Per message: the last hold report wins (it is the reason in force
  // when the message finally moved), but keep the report span/count.
  struct HoldInfo {
    ProcessId process = 0;
    HoldReason reason;
    SimTime first = 0;
    SimTime last = 0;
    std::size_t reports = 0;
  };
  std::map<MessageId, HoldInfo> holds;
  for (const TraceLogRecord& rec : log.records) {
    if (rec.type != TraceLogRecord::Type::kHold) continue;
    HoldInfo& info = holds[rec.held_msg];
    if (info.reports == 0) info.first = rec.time;
    info.last = rec.time;
    info.process = rec.process;
    info.reason = rec.reason;
    ++info.reports;
  }
  WhyChain chain;
  chain.msg = msg;
  std::vector<MessageId> visited;
  MessageId cur = msg;
  while (true) {
    if (std::find(visited.begin(), visited.end(), cur) != visited.end()) {
      chain.cycle = true;
      break;
    }
    visited.push_back(cur);
    const auto it = holds.find(cur);
    if (it == holds.end()) break;  // root: never held (or never logged)
    const HoldInfo& info = it->second;
    chain.links.push_back({cur, info.process, info.reason, info.first,
                           info.last, info.reports});
    if (!info.reason.blocking_msg.has_value()) break;  // root blocker
    cur = *info.reason.blocking_msg;
  }
  return chain;
}

std::string render_record(const TraceLogRecord& rec) {
  std::string out = "t=" + fmt_time(rec.time);
  switch (rec.type) {
    case TraceLogRecord::Type::kEvent:
      out += " p" + std::to_string(rec.process) + " " + to_string(rec.event) +
             " lam=" + fmt_u64(rec.lamport) + " peer=p" +
             std::to_string(rec.peer);
      if (rec.color != 0) out += " color=" + std::to_string(rec.color);
      break;
    case TraceLogRecord::Type::kHold:
      out += " p" + std::to_string(rec.process) + " hold x" +
             std::to_string(rec.held_msg) + " " + to_string(rec.reason.kind);
      if (rec.reason.blocking_msg.has_value()) {
        out += " on x" + std::to_string(*rec.reason.blocking_msg);
      }
      if (rec.reason.blocking_proc.has_value()) {
        out += " at p" + std::to_string(*rec.reason.blocking_proc);
      }
      break;
    case TraceLogRecord::Type::kNote:
      out += " note \"" + rec.note + "\"";
      break;
  }
  return out;
}

std::optional<EventKind> parse_event_kind(const std::string& name) {
  if (name == "invoke" || name == "s*") return EventKind::kInvoke;
  if (name == "send" || name == "s") return EventKind::kSend;
  if (name == "receive" || name == "r*") return EventKind::kReceive;
  if (name == "deliver" || name == "r") return EventKind::kDeliver;
  return std::nullopt;
}

QueryOutput query_summary(const std::string& path) {
  std::string error;
  const auto log = load_tracelog(path, &error);
  if (!log.has_value()) return query_error("summary", error);

  std::array<std::size_t, 4> by_kind{};
  std::array<std::size_t, kHoldKindCount> holds_by_kind{};
  std::size_t holds = 0;
  std::size_t notes = 0;
  SimTime t_min = 0;
  SimTime t_max = 0;
  std::uint64_t max_lamport = 0;
  bool first = true;
  for (const TraceLogRecord& rec : log->records) {
    if (first || rec.time < t_min) t_min = rec.time;
    if (first || rec.time > t_max) t_max = rec.time;
    first = false;
    switch (rec.type) {
      case TraceLogRecord::Type::kEvent:
        ++by_kind[static_cast<std::size_t>(rec.event.kind)];
        max_lamport = std::max(max_lamport, rec.lamport);
        break;
      case TraceLogRecord::Type::kHold:
        ++holds;
        ++holds_by_kind[static_cast<std::size_t>(rec.reason.kind)];
        break;
      case TraceLogRecord::Type::kNote:
        ++notes;
        break;
    }
  }

  QueryOutput out;
  std::string& text = out.text;
  const TraceLogHeader& h = log->header;
  text += "tracelog " + path + "\n";
  text += "  engine " + h.engine + ", protocol \"" + h.protocol + "\", " +
          std::to_string(h.n_processes) + " processes, " +
          std::to_string(h.n_messages) + " messages, seed " +
          fmt_u64(h.seed) + "\n";
  text += "  shards " + std::to_string(h.shards) + ", workers " +
          std::to_string(h.workers) + ", lookahead " +
          fmt_time(h.lookahead) + "\n";
  text += "  records " + std::to_string(log->records.size()) + " (events " +
          std::to_string(log->events.size()) + ", holds " +
          std::to_string(holds) + ", notes " + std::to_string(notes) + ")\n";
  text += "  events: invoke " + std::to_string(by_kind[0]) + ", send " +
          std::to_string(by_kind[1]) + ", receive " +
          std::to_string(by_kind[2]) + ", deliver " +
          std::to_string(by_kind[3]) + "\n";
  if (holds > 0) {
    text += "  holds:";
    for (std::size_t k = 0; k < kHoldKindCount; ++k) {
      if (holds_by_kind[k] == 0) continue;
      text += " " + to_string(static_cast<HoldKind>(k)) + " " +
              std::to_string(holds_by_kind[k]);
    }
    text += "\n";
  }
  if (!log->records.empty()) {
    text += "  time span [" + fmt_time(t_min) + ", " + fmt_time(t_max) +
            "], max lamport " + fmt_u64(max_lamport) + "\n";
  }

  JsonWriter w = query_json_head("summary");
  w.kv("path", path);
  w.key("header");
  write_header_json(w, h);
  w.kv("records", static_cast<std::uint64_t>(log->records.size()));
  w.kv("events", static_cast<std::uint64_t>(log->events.size()));
  w.kv("holds", static_cast<std::uint64_t>(holds));
  w.kv("notes", static_cast<std::uint64_t>(notes));
  w.key("events_by_kind").begin_object();
  w.kv("invoke", static_cast<std::uint64_t>(by_kind[0]));
  w.kv("send", static_cast<std::uint64_t>(by_kind[1]));
  w.kv("receive", static_cast<std::uint64_t>(by_kind[2]));
  w.kv("deliver", static_cast<std::uint64_t>(by_kind[3]));
  w.end_object();
  w.key("holds_by_kind").begin_object();
  for (std::size_t k = 1; k < kHoldKindCount; ++k) {
    if (holds_by_kind[k] == 0) continue;
    w.kv(to_string(static_cast<HoldKind>(k)),
         static_cast<std::uint64_t>(holds_by_kind[k]));
  }
  w.end_object();
  w.kv("time_min", t_min);
  w.kv("time_max", t_max);
  w.kv("max_lamport", max_lamport);
  w.end_object();
  out.json = w.take();
  return out;
}

QueryOutput query_cone(const std::string& path, MessageId msg,
                       EventKind kind, bool future, std::size_t limit) {
  std::string error;
  const auto log = load_tracelog(path, &error);
  if (!log.has_value()) return query_error("cone", error);
  const TraceLogIndex index = TraceLogIndex::build(*log);
  const auto anchor = index.find_event(msg, kind);
  const SystemEvent wanted{msg, kind};
  if (!anchor.has_value()) {
    return query_error("cone",
                       "event " + to_string(wanted) + " not in " + path);
  }
  std::vector<std::size_t> cone =
      future ? index.causal_future(*anchor) : index.causal_past(*anchor);
  const std::size_t total = cone.size();
  std::size_t dropped = 0;
  if (limit != 0 && cone.size() > limit) {
    dropped = cone.size() - limit;
    if (future) {
      cone.resize(limit);  // keep the events nearest the anchor
    } else {
      cone.erase(cone.begin(), cone.end() - static_cast<std::ptrdiff_t>(limit));
    }
  }

  QueryOutput out;
  out.text += std::string("causal ") + (future ? "future" : "past") + " of " +
              to_string(wanted) + ": " + std::to_string(total) + " events\n";
  if (dropped > 0) {
    out.text += "  ... " + std::to_string(dropped) +
                " dropped by --limit, showing the " +
                (future ? "earliest" : "latest") + " " +
                std::to_string(cone.size()) + "\n";
  }
  for (const std::size_t ev : cone) {
    out.text += "  #" + std::to_string(log->events[ev]) + " " +
                render_record(index.event(ev));
    if (ev == *anchor) out.text += "   <- anchor";
    out.text += "\n";
  }

  JsonWriter w = query_json_head("cone");
  w.kv("path", path);
  w.kv("msg", static_cast<std::uint64_t>(msg));
  w.kv("kind", kind_name(kind));
  w.kv("direction", future ? "future" : "past");
  w.kv("total", static_cast<std::uint64_t>(total));
  w.kv("dropped", static_cast<std::uint64_t>(dropped));
  w.key("events").begin_array();
  for (const std::size_t ev : cone) write_record_json(w, index.event(ev));
  w.end_array();
  w.end_object();
  out.json = w.take();
  return out;
}

QueryOutput query_cut(const std::string& path, SimTime at) {
  std::string error;
  const auto log = load_tracelog(path, &error);
  if (!log.has_value()) return query_error("cut", error);
  const TraceLogIndex index = TraceLogIndex::build(*log);
  const CutResult cut = cut_at(index, at);

  QueryOutput out;
  out.text += "cut at t=" + fmt_time(at) + ": " +
              std::to_string(cut.events_in_cut) + " events, " +
              (cut.consistent ? "consistent" : "INCONSISTENT") + "\n";
  for (std::size_t p = 0; p < cut.frontier.size(); ++p) {
    out.text += "  p" + std::to_string(p) + ": ";
    if (cut.frontier[p].has_value()) {
      out.text += render_record(index.event(*cut.frontier[p]));
    } else {
      out.text += "(no events yet)";
    }
    out.text += "\n";
  }
  out.text += "  in flight (" + std::to_string(cut.in_flight.size()) + "):";
  for (const MessageId m : cut.in_flight) {
    out.text += " x" + std::to_string(m);
  }
  out.text += "\n";

  JsonWriter w = query_json_head("cut");
  w.kv("path", path);
  w.kv("at", at);
  w.kv("events_in_cut", static_cast<std::uint64_t>(cut.events_in_cut));
  w.kv("consistent", cut.consistent);
  w.key("frontier").begin_array();
  for (std::size_t p = 0; p < cut.frontier.size(); ++p) {
    if (cut.frontier[p].has_value()) {
      write_record_json(w, index.event(*cut.frontier[p]));
    } else {
      w.null();
    }
  }
  w.end_array();
  w.key("in_flight").begin_array();
  for (const MessageId m : cut.in_flight) {
    w.value(static_cast<std::uint64_t>(m));
  }
  w.end_array();
  w.end_object();
  out.json = w.take();
  return out;
}

QueryOutput query_why(const std::string& path, MessageId msg) {
  std::string error;
  const auto log = load_tracelog(path, &error);
  if (!log.has_value()) return query_error("why", error);
  const WhyChain chain = why_blocked(*log, msg);

  QueryOutput out;
  if (chain.links.empty()) {
    out.text += "x" + std::to_string(msg) +
                " was never reported held in " + path + "\n";
  } else {
    out.text += "why x" + std::to_string(msg) + " was blocked:\n";
    for (std::size_t i = 0; i < chain.links.size(); ++i) {
      const WhyLink& link = chain.links[i];
      out.text += "  ";
      for (std::size_t d = 0; d < i; ++d) out.text += "  ";
      out.text += "x" + std::to_string(link.msg) + " held at p" +
                  std::to_string(link.process) + ": " +
                  to_string(link.reason.kind);
      if (link.reason.blocking_msg.has_value()) {
        out.text += " on x" + std::to_string(*link.reason.blocking_msg);
      }
      if (link.reason.blocking_proc.has_value()) {
        out.text += " at p" + std::to_string(*link.reason.blocking_proc);
      }
      out.text += " (" + std::to_string(link.reports) + " reports, t=" +
                  fmt_time(link.first) + ".." + fmt_time(link.last) + ")\n";
    }
    if (chain.cycle) {
      out.text += "  cycle: the chain revisits a message (mutual blocking)\n";
    } else {
      const WhyLink& root = chain.links.back();
      out.text += "  root blocker: x" + std::to_string(root.msg) + " (" +
                  to_string(root.reason.kind) + ")\n";
    }
  }

  JsonWriter w = query_json_head("why");
  w.kv("path", path);
  w.kv("msg", static_cast<std::uint64_t>(msg));
  w.kv("cycle", chain.cycle);
  w.key("chain").begin_array();
  for (const WhyLink& link : chain.links) {
    w.begin_object();
    w.kv("msg", static_cast<std::uint64_t>(link.msg));
    w.kv("process", static_cast<std::uint64_t>(link.process));
    w.kv("kind", to_string(link.reason.kind));
    w.key("blocking_msg");
    if (link.reason.blocking_msg.has_value()) {
      w.value(static_cast<std::uint64_t>(*link.reason.blocking_msg));
    } else {
      w.null();
    }
    w.key("blocking_proc");
    if (link.reason.blocking_proc.has_value()) {
      w.value(static_cast<std::uint64_t>(*link.reason.blocking_proc));
    } else {
      w.null();
    }
    w.kv("first", link.first);
    w.kv("last", link.last);
    w.kv("reports", static_cast<std::uint64_t>(link.reports));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out.json = w.take();
  return out;
}

namespace {

/// Render the causal-past context of the diverging record from one
/// log's prefix (everything up to and including the divergence).
std::vector<std::string> divergence_context(const LoadedTraceLog& prefix,
                                            std::size_t context) {
  std::vector<std::string> lines;
  if (prefix.records.empty()) return lines;
  const TraceLogIndex index = TraceLogIndex::build(prefix);
  const std::size_t last_record = prefix.records.size() - 1;
  const TraceLogRecord& last = prefix.records[last_record];
  // Anchor on the diverging event itself, or (for a hold/note record)
  // on the last event of the same process / the last event overall.
  std::optional<std::size_t> anchor;
  for (std::size_t i = index.event_count(); i-- > 0;) {
    const bool same_record = prefix.events[i] == last_record;
    const bool same_process = last.type != TraceLogRecord::Type::kNote &&
                              index.event(i).process == last.process;
    if (same_record || same_process ||
        last.type == TraceLogRecord::Type::kNote) {
      anchor = i;
      break;
    }
  }
  if (!anchor.has_value()) {
    lines.push_back("#" + std::to_string(last_record) + " " +
                    render_record(last));
    return lines;
  }
  std::vector<std::size_t> past = index.causal_past(*anchor);
  if (context != 0 && past.size() > context) {
    past.erase(past.begin(),
               past.end() - static_cast<std::ptrdiff_t>(context));
  }
  for (const std::size_t ev : past) {
    std::string line = "#" + std::to_string(prefix.events[ev]) + " " +
                       render_record(index.event(ev));
    if (prefix.events[ev] == last_record) line += "   <- diverging record";
    lines.push_back(std::move(line));
  }
  if (prefix.events.empty() || prefix.events.back() != last_record) {
    lines.push_back("#" + std::to_string(last_record) + " " +
                    render_record(last) + "   <- diverging record");
  }
  return lines;
}

}  // namespace

DivergenceReport diverge_tracelogs(const std::string& path_a,
                                   const std::string& path_b,
                                   std::size_t context) {
  DivergenceReport report;
  TraceLogStream a;
  TraceLogStream b;
  std::string error;
  if (!a.open(path_a, &error) || !b.open(path_b, &error)) {
    report.error = error;
    return report;
  }
  report.header_a = a.header();
  report.header_b = b.header();
  const auto warn_if = [&report](bool differ, const char* what) {
    if (differ) {
      report.warnings.push_back(std::string("headers disagree on ") + what +
                                " — the runs were not set up comparably");
    }
  };
  warn_if(a.header().seed != b.header().seed, "seed");
  warn_if(a.header().n_processes != b.header().n_processes, "n_processes");
  warn_if(a.header().n_messages != b.header().n_messages, "n_messages");

  TraceLogRecord rec_a;
  TraceLogRecord rec_b;
  std::size_t index = 0;
  while (true) {
    const int sa = a.next(&rec_a, &error);
    if (sa < 0) {
      report.error = path_a + ": " + error;
      return report;
    }
    const int sb = b.next(&rec_b, &error);
    if (sb < 0) {
      report.error = path_b + ": " + error;
      return report;
    }
    if (sa == 0 && sb == 0) {
      report.ok = true;
      report.records_compared = index;
      return report;  // identical
    }
    if (sa != sb) {
      report.ok = true;
      report.diverged = true;
      report.index = index;
      report.field = "length";
      if (sa == 1) report.record_a = rec_a;
      if (sb == 1) report.record_b = rec_b;
      break;
    }
    const std::string field = describe_difference(rec_a, rec_b);
    if (!field.empty()) {
      report.ok = true;
      report.diverged = true;
      report.index = index;
      report.field = field;
      report.record_a = rec_a;
      report.record_b = rec_b;
      break;
    }
    ++index;
  }
  report.records_compared = index;
  // Reload only the prefix up to the divergence and build the causal
  // context from each side.
  if (report.record_a.has_value()) {
    if (const auto prefix = load_tracelog(path_a, nullptr, report.index + 1);
        prefix.has_value()) {
      report.context_a = divergence_context(*prefix, context);
    }
  }
  if (report.record_b.has_value()) {
    if (const auto prefix = load_tracelog(path_b, nullptr, report.index + 1);
        prefix.has_value()) {
      report.context_b = divergence_context(*prefix, context);
    }
  }
  return report;
}

QueryOutput query_diverge(const std::string& path_a,
                          const std::string& path_b, std::size_t context) {
  const DivergenceReport report = diverge_tracelogs(path_a, path_b, context);
  if (!report.ok) return query_error("diverge", report.error);

  QueryOutput out;
  out.exit_code = report.diverged ? 1 : 0;
  for (const std::string& warning : report.warnings) {
    out.text += "warning: " + warning + "\n";
  }
  if (!report.diverged) {
    out.text += "no divergence: " + fmt_u64(report.records_compared) +
                " records identical\n  A " + path_a + " (" +
                report.header_a.engine + ", " +
                std::to_string(report.header_a.shards) + " shards)\n  B " +
                path_b + " (" + report.header_b.engine + ", " +
                std::to_string(report.header_b.shards) + " shards)\n";
  } else {
    out.text += "logs diverge at record #" + std::to_string(report.index) +
                " (field: " + report.field + ")\n";
    out.text += "  A " + path_a + ": " +
                (report.record_a.has_value() ? render_record(*report.record_a)
                                             : "(log ends)") +
                "\n";
    out.text += "  B " + path_b + ": " +
                (report.record_b.has_value() ? render_record(*report.record_b)
                                             : "(log ends)") +
                "\n";
    out.text += "causal past of the divergence in A:\n";
    for (const std::string& line : report.context_a) {
      out.text += "  " + line + "\n";
    }
    if (report.context_a.empty()) out.text += "  (log ends before it)\n";
    out.text += "causal past of the divergence in B:\n";
    for (const std::string& line : report.context_b) {
      out.text += "  " + line + "\n";
    }
    if (report.context_b.empty()) out.text += "  (log ends before it)\n";
  }

  JsonWriter w = query_json_head("diverge");
  w.kv("path_a", path_a);
  w.kv("path_b", path_b);
  w.key("header_a");
  write_header_json(w, report.header_a);
  w.key("header_b");
  write_header_json(w, report.header_b);
  w.key("warnings").begin_array();
  for (const std::string& warning : report.warnings) w.value(warning);
  w.end_array();
  w.kv("diverged", report.diverged);
  w.kv("records_compared", report.records_compared);
  if (report.diverged) {
    w.kv("index", static_cast<std::uint64_t>(report.index));
    w.kv("field", report.field);
    w.key("record_a");
    if (report.record_a.has_value()) {
      write_record_json(w, *report.record_a);
    } else {
      w.null();
    }
    w.key("record_b");
    if (report.record_b.has_value()) {
      write_record_json(w, *report.record_b);
    } else {
      w.null();
    }
    w.key("context_a").begin_array();
    for (const std::string& line : report.context_a) w.value(line);
    w.end_array();
    w.key("context_b").begin_array();
    for (const std::string& line : report.context_b) w.value(line);
    w.end_array();
  }
  w.end_object();
  out.json = w.take();
  return out;
}

}  // namespace msgorder
