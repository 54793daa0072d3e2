// Causal trace log (ISSUE 9 tentpole): a compact, append-only,
// dependency-free record of a run's full causal history — every
// invoke/send/receive/deliver event with its logical clock, channel
// endpoints, and deterministic engine tiebreak, every protocol hold
// report (the "why is this message blocked" references), and the
// engine's invariant notes.  Every shard count emits the SAME byte
// stream for the same (workload, protocol, seed): a one-shard run
// appends inline, a multi-shard run appends during its deterministic
// observability replay (merge order == one-shard order), so two logs
// can be diffed record-for-record to bisect divergence
// (src/obs/tracelog_index.hpp, tools/msgorder_query.cpp).
//
// On-disk format "msgorder.tracelog/1":
//
//   8 bytes   magic "MOTLOG1\n"
//   u32 LE    header length
//   ...       header JSON (schema/engine/protocol/n_processes/
//             n_messages/seed/shards/workers/lookahead).  The run seed
//             plus a record's channel endpoints recover the channel's
//             RNG stream id (TraceLogHeader::channel_stream_seed), which
//             is everything replay needs — per-channel delay streams
//             depend only on (seed, src, dst), never on interleaving.
//   records   each: u32 LE payload length, then payload
//
// Record payloads (all integers little-endian, times as IEEE-754 bits):
//   event (type 0, 42 bytes): u8 type, u8 kind (EventKind), u32 msg,
//     u32 process, u32 peer (the channel's other endpoint), i32 color,
//     f64 time, u64 tiebreak (the engine's (kind,owner,counter) entry
//     key, engine_detail.hpp), u64 lamport
//   hold (type 1, 35 bytes): u8 type, u8 hold_kind, u8 flags (bit 0:
//     blocking_msg present, bit 1: blocking_proc present), u32 msg,
//     u32 process, u32 blocking_msg, u32 blocking_proc, f64 time,
//     u64 tiebreak
//   note (type 2, 13+n bytes): u8 type, f64 time, u32 length, n bytes
//
// Lamport clocks are computed online by the writer (send transfers the
// sender's clock to the receive side); because every shard count
// appends in the same order, the clocks — like everything else — are
// identical across shard counts.
//
// The same records feed the flight recorder: an armed writer keeps the
// newest TraceLogTail::kCapacity of them in memory, with or without a
// log file, and a red run dumps that tail as msgorder.flight_recorder/2
// (dump_postmortem_if_red, src/obs/report.hpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/attribution.hpp"
#include "src/obs/json.hpp"
#include "src/poset/event.hpp"
#include "src/protocols/protocol.hpp"

namespace msgorder {

/// Parsed JSON header of a trace log.
struct TraceLogHeader {
  std::string schema;    // "msgorder.tracelog/1"
  std::string engine;    // "sequential" (1 shard) | "sharded" | "verifier"
  std::string protocol;  // the Observability label (may be empty)
  std::size_t n_processes = 0;
  std::size_t n_messages = 0;
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  std::size_t workers = 1;
  double lookahead = 0;

  /// The RNG stream id of channel src -> dst under this run's seed —
  /// the per-channel SplitMix64 stream Network draws delays from; with
  /// the header seed this is all a replay needs to re-derive every
  /// arrival time on the channel.
  std::uint64_t channel_stream_seed(ProcessId src, ProcessId dst) const;
};

/// Every field of a record but the note text.  Trivially copyable, so
/// the flight recorder's ring copies an event or hold record without
/// touching a string.
struct TraceLogFields {
  enum class Type : std::uint8_t { kEvent = 0, kHold = 1, kNote = 2 };

  Type type = Type::kEvent;
  SimTime time = 0;
  /// Deterministic (kind, owner, counter) key of the queue entry whose
  /// handling produced this record; 0 for notes.
  std::uint64_t tiebreak = 0;

  // kEvent
  SystemEvent event;
  ProcessId process = 0;
  /// The channel's other endpoint: dst for invoke/send, src for
  /// receive/deliver.
  ProcessId peer = 0;
  std::int32_t color = 0;
  std::uint64_t lamport = 0;

  // kHold
  MessageId held_msg = 0;
  HoldReason reason;

  bool operator==(const TraceLogFields&) const = default;
};

/// One decoded record.  Exactly one of the three sections is
/// meaningful, selected by `type`; the others stay default-initialized
/// so default equality compares whole records (the divergence bisector
/// and the one-shard == N-shard property tests rely on this).
struct TraceLogRecord : TraceLogFields {
  // kNote
  std::string note;

  bool operator==(const TraceLogRecord&) const = default;
};

/// Make `rec` the event record of `e` at `at` on message `m`.  The peer
/// is the channel's other endpoint — the destination before the message
/// crosses (invoke/send), the source after (receive/deliver) — so with
/// the header seed it names the RNG stream the message's delay came
/// from.  Only an event's fields are set (the writer fills `lamport`),
/// so a record reused for events stays a valid event record.
inline void set_event_record(TraceLogRecord& rec, const Message& m,
                             ProcessId at, SystemEvent e, SimTime t,
                             std::uint64_t tiebreak) {
  rec.type = TraceLogRecord::Type::kEvent;
  rec.time = t;
  rec.tiebreak = tiebreak;
  rec.event = e;
  rec.process = at;
  const bool outbound =
      e.kind == EventKind::kInvoke || e.kind == EventKind::kSend;
  rec.peer = outbound ? m.dst : m.src;
  rec.color = m.color;
}

/// Make `rec` a protocol's report that it holds `msg` at `at` for
/// `reason`; like set_event_record, only a hold's fields are set.
inline void set_hold_record(TraceLogRecord& rec, ProcessId at, MessageId msg,
                            const HoldReason& reason, SimTime t,
                            std::uint64_t tiebreak) {
  rec.type = TraceLogRecord::Type::kHold;
  rec.time = t;
  rec.tiebreak = tiebreak;
  rec.process = at;
  rec.held_msg = msg;
  rec.reason = reason;
}

inline TraceLogRecord note_record(std::string text, SimTime t) {
  TraceLogRecord rec;
  rec.type = TraceLogRecord::Type::kNote;
  rec.time = t;
  rec.note = std::move(text);
  return rec;
}

/// One record as a JSON object — the grammar of msgorder.query/1 and
/// msgorder.flight_recorder/2: `type` plus, for events, msg / kind /
/// process / peer / color / time / tiebreak / lamport; for holds, msg /
/// process / kind (the hold reason) / blocking_msg / blocking_proc
/// (null when unknown) / time / tiebreak; for notes, time / text.
void write_record_json(JsonWriter& w, const TraceLogRecord& rec);

/// The flight recorder: the newest kCapacity records a writer appended,
/// kept in memory.  It is the in-memory tail of the same record stream
/// the log file holds, and it outlives begin_run, so a short run's dump
/// still shows the end of the run before it.
class TraceLogTail {
 public:
  static constexpr std::size_t kCapacity = 1024;

  /// Keep `rec`, with `lamport` as its Lamport clock.
  void push(const TraceLogRecord& rec, std::uint64_t lamport = 0);

  /// Records currently retained (== kCapacity once wrapped).
  std::size_t size() const { return ring_.size(); }
  /// Monotone count of everything ever pushed; size() < total_records()
  /// iff the ring has wrapped and evicted its oldest records.
  std::uint64_t total_records() const { return written_; }

  /// Visit retained records oldest to newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(ring_[(written_ - n + i) % kCapacity]);
    }
  }

  /// The ring as a msgorder.flight_recorder/2 document.  `cause` labels
  /// why the dump happened ("monitor violation", ...); `tracelog_path`
  /// (when a log file was written) cross-references the full history
  /// the ring is a window of.
  std::string to_json(const std::string& cause = "",
                      const std::string& tracelog_path = "") const;

 private:
  std::vector<TraceLogRecord> ring_;  // grows to kCapacity, then wraps
  std::uint64_t written_ = 0;         // write head = written_ % kCapacity
};

/// Append-only writer of the record stream.  One instance serves one
/// Observability bundle; each begin_run truncates and rewrites the file
/// (the log, like the attribution table, describes the most recent
/// run).  All appends are single-threaded by construction: a one-shard
/// run is one thread, and a multi-shard run appends only from its
/// single-threaded merge replay.
class TraceLogWriter {
 public:
  /// An empty `path` writes no file; `keep_tail` arms the flight
  /// recorder (tail()).
  explicit TraceLogWriter(std::string path, bool keep_tail = false);

  const std::string& path() const { return path_; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Truncate the file and write magic + header (when a path is set);
  /// resets the logical clocks and the per-run counters.  The tail
  /// persists.
  void begin_run(const TraceLogHeader& header);

  /// Append one record: compute an event's `lamport` (send transfers the
  /// sender's clock to the receive side; the caller's value is
  /// ignored), encode the record to the file when a path is set —
  /// TraceLogStream::next decodes exactly this record, clock included —
  /// and keep it in the tail when one is armed.
  void append(const TraceLogRecord& rec);

  /// Flush buffered records to disk.  Safe to call repeatedly.
  void finish();

  /// Records written to the file since begin_run.
  std::uint64_t events_written() const { return events_written_; }
  /// Bytes written to the file since begin_run, header included.
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// The flight recorder; nullptr unless armed.
  const TraceLogTail* tail() const { return keep_tail_ ? &tail_ : nullptr; }

 private:
  void encode(const TraceLogRecord& rec, std::uint64_t lamport);
  /// Append one record's length prefix plus `payload` bytes of room to
  /// buffer_ (flushing a full buffer first) and return where the payload
  /// goes: records are encoded in place, with no per-record allocation.
  char* add_record(std::size_t payload);

  std::string path_;
  std::ofstream out_;
  std::string buffer_;
  std::string error_;
  std::uint64_t events_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  /// Online Lamport clocks: per-process counters plus the clock each
  /// message's send event carried (consumed by its receive).
  std::vector<std::uint64_t> proc_clock_;
  std::vector<std::uint64_t> msg_clock_;
  bool keep_tail_ = false;
  TraceLogTail tail_;
};

/// Streaming reader: header up front, then one record per next() call.
/// The divergence bisector uses this directly so comparing two
/// multi-million-record logs never loads either into memory.
class TraceLogStream {
 public:
  bool open(const std::string& path, std::string* error = nullptr);

  const TraceLogHeader& header() const { return header_; }
  const std::string& header_json() const { return header_json_; }

  /// 1: a record was decoded into *out.  0: clean end of file.
  /// -1: truncated or malformed input (`error` gets the reason).
  int next(TraceLogRecord* out, std::string* error = nullptr);

 private:
  std::ifstream in_;
  TraceLogHeader header_;
  std::string header_json_;
};

/// A fully loaded log: header plus every record in log order, with the
/// event records additionally indexed for the causal queries.
struct LoadedTraceLog {
  std::string path;
  TraceLogHeader header;
  std::vector<TraceLogRecord> records;
  /// Indices into `records` of the kEvent records, in log order.
  std::vector<std::size_t> events;
};

/// Read a whole log.  `max_records` > 0 stops after that many records
/// (the bisector loads only the prefix up to the divergence); 0 loads
/// everything.  nullopt on I/O or format errors.
std::optional<LoadedTraceLog> load_tracelog(const std::string& path,
                                            std::string* error = nullptr,
                                            std::size_t max_records = 0);

}  // namespace msgorder
