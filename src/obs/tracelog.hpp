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
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/attribution.hpp"
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

/// One decoded record.  Exactly one of the three sections is
/// meaningful, selected by `type`; the others stay default-initialized
/// so default equality compares whole records (the divergence bisector
/// and the one-shard == N-shard property tests rely on this).
struct TraceLogRecord {
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

  // kNote
  std::string note;

  bool operator==(const TraceLogRecord&) const = default;
};

/// Append-only writer.  One instance serves one Observability bundle;
/// each begin_run truncates and rewrites the file (the log, like the
/// attribution table, describes the most recent run).  All appends are
/// single-threaded by construction: a one-shard run is one thread, and
/// a multi-shard run appends only from its single-threaded merge
/// replay.
class TraceLogWriter {
 public:
  explicit TraceLogWriter(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Truncate the file and write magic + header; resets the logical
  /// clocks and the per-run counters.
  void begin_run(const TraceLogHeader& header);

  void append_event(ProcessId at, SystemEvent e, SimTime t,
                    std::uint64_t tiebreak, ProcessId peer,
                    std::int32_t color);
  void append_hold(ProcessId at, MessageId msg, const HoldReason& reason,
                   SimTime t, std::uint64_t tiebreak);
  void append_note(std::string_view text, SimTime t);

  /// Flush buffered records to disk.  Safe to call repeatedly.
  void finish();

  /// Records appended since begin_run (events + holds + notes).
  std::uint64_t events_written() const { return events_written_; }
  /// Bytes written since begin_run, header included.
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
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
