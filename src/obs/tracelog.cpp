#include "src/obs/tracelog.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/sim/network.hpp"

namespace msgorder {

namespace {

constexpr char kMagic[8] = {'M', 'O', 'T', 'L', 'O', 'G', '1', '\n'};
constexpr std::size_t kEventPayload = 42;
constexpr std::size_t kHoldPayload = 35;
constexpr std::size_t kNotePayloadMin = 13;
// One length prefix per record plus the payload; caps a malformed
// length field before it turns into a giant allocation.
constexpr std::uint32_t kMaxPayload = 1u << 24;
constexpr std::size_t kFlushThreshold = 1u << 20;

// Little-endian stores into a record written in place; each returns the
// position after the stored field.
char* put_u8(char* p, std::uint8_t v) {
  *p = static_cast<char>(v);
  return p + 1;
}

char* put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<char>((v >> (8 * i)) & 0xff);
  return p;
}

char* put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) *p++ = static_cast<char>((v >> (8 * i)) & 0xff);
  return p;
}

char* put_f64(char* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return put_u64(p, bits);
}

std::uint8_t get_u8(const char* p) { return static_cast<std::uint8_t>(*p); }

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

double get_f64(const char* p) {
  const std::uint64_t bits = get_u64(p);
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::uint64_t TraceLogHeader::channel_stream_seed(ProcessId src,
                                                  ProcessId dst) const {
  return Network::channel_seed(seed, src, dst);
}

void TraceLogWriter::begin_run(const TraceLogHeader& header) {
  out_.close();
  out_.clear();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  buffer_.clear();
  error_.clear();
  events_written_ = 0;
  bytes_written_ = 0;
  if (!out_) {
    error_ = "cannot open tracelog " + path_;
    return;
  }
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "msgorder.tracelog/1");
  w.kv("engine", header.engine);
  w.kv("protocol", header.protocol);
  w.kv("n_processes", static_cast<std::uint64_t>(header.n_processes));
  w.kv("n_messages", static_cast<std::uint64_t>(header.n_messages));
  w.kv("seed", header.seed);
  w.kv("shards", static_cast<std::uint64_t>(header.shards));
  w.kv("workers", static_cast<std::uint64_t>(header.workers));
  w.kv("lookahead", header.lookahead);
  w.end_object();
  const std::string json = w.take();
  std::string head(sizeof kMagic + 4, '\0');
  std::memcpy(head.data(), kMagic, sizeof kMagic);
  put_u32(head.data() + sizeof kMagic,
          static_cast<std::uint32_t>(json.size()));
  head.append(json);
  out_.write(head.data(), static_cast<std::streamsize>(head.size()));
  bytes_written_ = head.size();
  proc_clock_.assign(header.n_processes, 0);
  msg_clock_.assign(header.n_messages, 0);
}

char* TraceLogWriter::add_record(std::size_t payload) {
  if (buffer_.size() >= kFlushThreshold) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  const std::size_t at = buffer_.size();
  buffer_.resize(at + 4 + payload);
  ++events_written_;
  bytes_written_ += 4 + payload;
  return put_u32(buffer_.data() + at, static_cast<std::uint32_t>(payload));
}

void TraceLogWriter::append_event(ProcessId at, SystemEvent e, SimTime t,
                                  std::uint64_t tiebreak, ProcessId peer,
                                  std::int32_t color) {
  if (!out_.is_open()) return;
  if (at >= proc_clock_.size()) proc_clock_.resize(at + 1, 0);
  if (e.msg >= msg_clock_.size()) msg_clock_.resize(e.msg + 1, 0);
  std::uint64_t clock = 0;
  if (e.kind == EventKind::kReceive) {
    clock = std::max(proc_clock_[at], msg_clock_[e.msg]) + 1;
    proc_clock_[at] = clock;
  } else {
    clock = ++proc_clock_[at];
    if (e.kind == EventKind::kSend) msg_clock_[e.msg] = clock;
  }
  char* p = add_record(kEventPayload);
  p = put_u8(p, static_cast<std::uint8_t>(TraceLogRecord::Type::kEvent));
  p = put_u8(p, static_cast<std::uint8_t>(e.kind));
  p = put_u32(p, e.msg);
  p = put_u32(p, at);
  p = put_u32(p, peer);
  p = put_u32(p, static_cast<std::uint32_t>(color));
  p = put_f64(p, t);
  p = put_u64(p, tiebreak);
  p = put_u64(p, clock);
  assert(p == buffer_.data() + buffer_.size());
}

void TraceLogWriter::append_hold(ProcessId at, MessageId msg,
                                 const HoldReason& reason, SimTime t,
                                 std::uint64_t tiebreak) {
  if (!out_.is_open()) return;
  std::uint8_t flags = 0;
  if (reason.blocking_msg.has_value()) flags |= 1;
  if (reason.blocking_proc.has_value()) flags |= 2;
  char* p = add_record(kHoldPayload);
  p = put_u8(p, static_cast<std::uint8_t>(TraceLogRecord::Type::kHold));
  p = put_u8(p, static_cast<std::uint8_t>(reason.kind));
  p = put_u8(p, flags);
  p = put_u32(p, msg);
  p = put_u32(p, at);
  p = put_u32(p, reason.blocking_msg.value_or(0));
  p = put_u32(p, reason.blocking_proc.value_or(0));
  p = put_f64(p, t);
  p = put_u64(p, tiebreak);
  assert(p == buffer_.data() + buffer_.size());
}

void TraceLogWriter::append_note(std::string_view text, SimTime t) {
  if (!out_.is_open()) return;
  char* p = add_record(kNotePayloadMin + text.size());
  p = put_u8(p, static_cast<std::uint8_t>(TraceLogRecord::Type::kNote));
  p = put_f64(p, t);
  p = put_u32(p, static_cast<std::uint32_t>(text.size()));
  std::memcpy(p, text.data(), text.size());
}

void TraceLogWriter::finish() {
  if (!out_.is_open()) return;
  if (!buffer_.empty()) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  out_.flush();
  if (!out_ && error_.empty()) {
    error_ = "write error on tracelog " + path_;
  }
}

bool TraceLogStream::open(const std::string& path, std::string* error) {
  in_.open(path, std::ios::binary);
  if (!in_) {
    fail(error, "cannot open tracelog " + path);
    return false;
  }
  char magic[sizeof kMagic];
  if (!in_.read(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    fail(error, path + ": not a msgorder.tracelog file (bad magic)");
    return false;
  }
  char len_bytes[4];
  if (!in_.read(len_bytes, 4)) {
    fail(error, path + ": truncated header length");
    return false;
  }
  const std::uint32_t header_len = get_u32(len_bytes);
  if (header_len == 0 || header_len > kMaxPayload) {
    fail(error, path + ": implausible header length");
    return false;
  }
  header_json_.resize(header_len);
  if (!in_.read(header_json_.data(), header_len)) {
    fail(error, path + ": truncated header");
    return false;
  }
  std::string parse_error;
  const auto doc = json_parse(header_json_, &parse_error);
  if (!doc.has_value() || !doc->is_object()) {
    fail(error, path + ": bad header JSON: " + parse_error);
    return false;
  }
  header_.schema = doc->string_at("schema").value_or("");
  if (header_.schema != "msgorder.tracelog/1") {
    fail(error, path + ": unsupported schema \"" + header_.schema + "\"");
    return false;
  }
  header_.engine = doc->string_at("engine").value_or("");
  header_.protocol = doc->string_at("protocol").value_or("");
  header_.n_processes =
      static_cast<std::size_t>(doc->number_at("n_processes").value_or(0));
  header_.n_messages =
      static_cast<std::size_t>(doc->number_at("n_messages").value_or(0));
  header_.seed =
      static_cast<std::uint64_t>(doc->number_at("seed").value_or(0));
  header_.shards =
      static_cast<std::size_t>(doc->number_at("shards").value_or(1));
  header_.workers =
      static_cast<std::size_t>(doc->number_at("workers").value_or(1));
  header_.lookahead = doc->number_at("lookahead").value_or(0);
  return true;
}

int TraceLogStream::next(TraceLogRecord* out, std::string* error) {
  char len_bytes[4];
  if (!in_.read(len_bytes, 4)) {
    if (in_.gcount() == 0) return 0;  // clean end of file
    fail(error, "truncated record length");
    return -1;
  }
  const std::uint32_t len = get_u32(len_bytes);
  if (len == 0 || len > kMaxPayload) {
    fail(error, "implausible record length");
    return -1;
  }
  std::string payload(len, '\0');
  if (!in_.read(payload.data(), len)) {
    fail(error, "truncated record payload");
    return -1;
  }
  const char* p = payload.data();
  *out = TraceLogRecord{};
  switch (get_u8(p)) {
    case 0: {
      if (len != kEventPayload) {
        fail(error, "bad event record size");
        return -1;
      }
      out->type = TraceLogRecord::Type::kEvent;
      out->event.kind = static_cast<EventKind>(get_u8(p + 1));
      out->event.msg = get_u32(p + 2);
      out->process = get_u32(p + 6);
      out->peer = get_u32(p + 10);
      out->color = static_cast<std::int32_t>(get_u32(p + 14));
      out->time = get_f64(p + 18);
      out->tiebreak = get_u64(p + 26);
      out->lamport = get_u64(p + 34);
      return 1;
    }
    case 1: {
      if (len != kHoldPayload) {
        fail(error, "bad hold record size");
        return -1;
      }
      out->type = TraceLogRecord::Type::kHold;
      out->reason.kind = static_cast<HoldKind>(get_u8(p + 1));
      const std::uint8_t flags = get_u8(p + 2);
      out->held_msg = get_u32(p + 3);
      out->process = get_u32(p + 7);
      if ((flags & 1) != 0) out->reason.blocking_msg = get_u32(p + 11);
      if ((flags & 2) != 0) out->reason.blocking_proc = get_u32(p + 15);
      out->time = get_f64(p + 19);
      out->tiebreak = get_u64(p + 27);
      return 1;
    }
    case 2: {
      if (len < kNotePayloadMin) {
        fail(error, "bad note record size");
        return -1;
      }
      out->type = TraceLogRecord::Type::kNote;
      out->time = get_f64(p + 1);
      const std::uint32_t text_len = get_u32(p + 9);
      if (kNotePayloadMin + text_len != len) {
        fail(error, "bad note text length");
        return -1;
      }
      out->note.assign(p + 13, text_len);
      return 1;
    }
    default:
      fail(error, "unknown record type");
      return -1;
  }
}

std::optional<LoadedTraceLog> load_tracelog(const std::string& path,
                                            std::string* error,
                                            std::size_t max_records) {
  TraceLogStream stream;
  if (!stream.open(path, error)) return std::nullopt;
  LoadedTraceLog log;
  log.path = path;
  log.header = stream.header();
  TraceLogRecord rec;
  std::string rec_error;
  int status = 0;
  while ((status = stream.next(&rec, &rec_error)) == 1) {
    if (rec.type == TraceLogRecord::Type::kEvent) {
      log.events.push_back(log.records.size());
    }
    log.records.push_back(std::move(rec));
    if (max_records != 0 && log.records.size() >= max_records) break;
  }
  if (status < 0) {
    fail(error, path + ": " + rec_error);
    return std::nullopt;
  }
  return log;
}

}  // namespace msgorder
