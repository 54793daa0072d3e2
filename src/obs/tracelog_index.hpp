// Index + query engine over a causal trace log (ISSUE 9): the loaded
// log's event records become a poset — per-process program order plus
// the send -> receive channel edge of every message — and the queries
// are reachability questions on it, answered by BFS over the adjacency
// lists: O(E) per cone, which is all a one-query tool needs (a dense
// closure would cost O(n²) bits before answering anything).
//
// Four query families, each with a text and a msgorder.query/1 JSON
// rendering shared by tools/msgorder_query.cpp and the golden tests:
//   cone    — causal past/future of one event (Ben-Zvi's cones)
//   cut     — the consistent cut at a wall-clock instant: frontier per
//             process + messages in flight across it
//   why     — the why-blocked chain: walk the latest hold report of a
//             message through its blocking_msg references transitively
//             to the root blocker
//   diverge — bisect two logs: stream records in parallel, find the
//             first index where they differ under the engine's
//             deterministic (kind,owner,counter) order, and show the
//             diverging event's causal past from both logs
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/tracelog.hpp"

namespace msgorder {

/// Reachability index over the event records of one loaded log.  Event
/// indices below are positions in `log->events` (log order).  Keeps a
/// pointer to the log: the log must outlive the index.
class TraceLogIndex {
 public:
  /// Build the program-order + channel edges.
  static TraceLogIndex build(const LoadedTraceLog& log);

  const LoadedTraceLog& log() const { return *log_; }
  std::size_t event_count() const { return succ_.size(); }
  const TraceLogRecord& event(std::size_t ev) const {
    return log_->records[log_->events[ev]];
  }

  /// The event index of (msg, kind), if the log recorded it.
  std::optional<std::size_t> find_event(MessageId msg, EventKind kind) const;

  /// Causal past/future cone of an event, anchor included, ascending
  /// event-index (== log) order.
  std::vector<std::size_t> causal_past(std::size_t ev) const;
  std::vector<std::size_t> causal_future(std::size_t ev) const;

  /// Direct causal predecessors of an event (program-order parent and,
  /// for a receive, the matching send).
  const std::vector<std::uint32_t>& preds(std::size_t ev) const {
    return pred_[ev];
  }

 private:
  std::vector<std::size_t> bfs(std::size_t ev, bool forward) const;

  const LoadedTraceLog* log_ = nullptr;
  std::vector<std::vector<std::uint32_t>> succ_;
  std::vector<std::vector<std::uint32_t>> pred_;
};

/// The consistent cut at time t.
struct CutResult {
  SimTime at = 0;
  std::size_t events_in_cut = 0;
  /// Time cuts are consistent by construction (every causal edge goes
  /// forward in time); this is verified against the edge lists, not
  /// assumed.
  bool consistent = true;
  /// Per process: the last event at or before t, if any.
  std::vector<std::optional<std::size_t>> frontier;
  /// Messages whose send happened at or before t but whose receive
  /// (x.r*) is after t or missing: the channel contents across the cut.
  std::vector<MessageId> in_flight;
};

CutResult cut_at(const TraceLogIndex& index, SimTime t);

/// One link of a why-blocked chain: `msg` was last held at `process`
/// for `reason`; `first`/`last` span the hold reports and `reports`
/// counts them.
struct WhyLink {
  MessageId msg = 0;
  ProcessId process = 0;
  HoldReason reason;
  SimTime first = 0;
  SimTime last = 0;
  std::size_t reports = 0;
};

/// The transitive why-blocked chain of a message: link 0 is the queried
/// message; each next link is the previous reason's blocking_msg.
struct WhyChain {
  MessageId msg = 0;
  std::vector<WhyLink> links;
  /// The walk revisited a message (mutual blocking); the chain stops at
  /// the repeat.
  bool cycle = false;
  bool operator==(const WhyChain&) const = default;
};

WhyChain why_blocked(const LoadedTraceLog& log, MessageId msg);

/// Result of bisecting two logs.
struct DivergenceReport {
  bool ok = false;       // both logs loaded and streamed cleanly
  std::string error;     // load/decode failure when !ok
  bool diverged = false;
  /// Record index (log order, both logs) of the first difference.
  std::size_t index = 0;
  /// Which aspect differs: "type", "time", "event", "process", "peer",
  /// "color", "tiebreak", "lamport", "hold", "note", or "length" when
  /// one log is a strict prefix of the other.
  std::string field;
  std::optional<TraceLogRecord> record_a;
  std::optional<TraceLogRecord> record_b;
  /// Rendered causal past of the diverging event from each log (at most
  /// `context` lines, ending at the divergence).
  std::vector<std::string> context_a;
  std::vector<std::string> context_b;
  std::uint64_t records_compared = 0;
  TraceLogHeader header_a;
  TraceLogHeader header_b;
  /// Semantic header mismatches (seed, n_processes, n_messages) — the
  /// runs were not set up to be comparable.  Engine/shards/workers
  /// differences are expected (that is the point) and not warned about.
  std::vector<std::string> warnings;
};

DivergenceReport diverge_tracelogs(const std::string& path_a,
                                   const std::string& path_b,
                                   std::size_t context = 12);

/// One-line human rendering of a record, e.g.
/// "t=12.375 p1 x3.r* lam=9 peer=p0" — the vocabulary of every text
/// output below and of the diverge context lines.
std::string render_record(const TraceLogRecord& rec);

/// A query's two renderings plus its process exit code (0 ok; 1 is
/// reserved for "diverge found a divergence"; 2 load/usage failure).
struct QueryOutput {
  int exit_code = 0;
  std::string text;
  std::string json;  // msgorder.query/1
};

/// Parse an event-kind name: "invoke"/"send"/"receive"/"deliver" or the
/// paper's "s*"/"s"/"r*"/"r".
std::optional<EventKind> parse_event_kind(const std::string& name);

// The five msgorder_query subcommands, CLI-independent so the golden
// tests drive them directly (the msgorder_stats pattern).
QueryOutput query_summary(const std::string& path);
QueryOutput query_cone(const std::string& path, MessageId msg,
                       EventKind kind, bool future, std::size_t limit);
QueryOutput query_cut(const std::string& path, SimTime at);
QueryOutput query_why(const std::string& path, MessageId msg);
QueryOutput query_diverge(const std::string& path_a,
                          const std::string& path_b, std::size_t context);

}  // namespace msgorder
