#include "src/obs/attribution.hpp"

#include "src/obs/json.hpp"

namespace msgorder {

std::string to_string(HoldPhase phase) {
  return phase == HoldPhase::kSend ? "send" : "delivery";
}

DelayAttribution::DelayAttribution(std::size_t n_messages)
    : per_message_(n_messages) {}

const HoldSegment* DelayAttribution::close_open(PerMessage& pm,
                                                SimTime now) {
  pm.open = false;
  const auto index = static_cast<std::uint32_t>(closed_.size());
  closed_.push_back(HoldSegment{
      static_cast<MessageId>(&pm - per_message_.data()), pm.process,
      pm.phase, pm.reason, pm.begin, now});
  next_.push_back(kNoSegment);
  if (pm.last_closed == kNoSegment) {
    pm.first_closed = index;
  } else {
    next_[pm.last_closed] = index;
  }
  pm.last_closed = index;
  const auto kind = static_cast<std::size_t>(pm.reason.kind);
  if (kind < kHoldKindCount) {
    totals_by_kind_[kind] += closed_.back().duration();
  }
  return &closed_.back();
}

const HoldSegment* DelayAttribution::on_hold(MessageId msg,
                                             ProcessId process,
                                             HoldPhase phase,
                                             const HoldReason& reason,
                                             SimTime now) {
  if (msg >= per_message_.size()) return nullptr;
  PerMessage& pm = per_message_[msg];
  const HoldSegment* closed = nullptr;
  if (pm.open) {
    // Same phase and reason: the hold simply persists; keep the segment
    // open so re-reports on every drain pass do not fragment the table.
    if (pm.phase == phase && pm.reason == reason) return nullptr;
    closed = close_open(pm, now);
  }
  pm.open = true;
  pm.phase = phase;
  pm.reason = reason;
  pm.process = process;
  pm.begin = now;
  return closed;
}

const HoldSegment* DelayAttribution::on_release(MessageId msg,
                                                HoldPhase phase,
                                                SimTime now) {
  if (msg >= per_message_.size()) return nullptr;
  PerMessage& pm = per_message_[msg];
  if (!pm.open || pm.phase != phase) return nullptr;
  return close_open(pm, now);
}

DelayAttribution::UndoPoint DelayAttribution::undo_point(
    MessageId msg) const {
  UndoPoint point;
  point.msg = msg;
  if (msg >= per_message_.size()) return point;  // undo() ignores it
  point.before = per_message_[msg];
  point.segments = static_cast<std::uint32_t>(closed_.size());
  const auto kind = static_cast<std::size_t>(point.before.reason.kind);
  if (kind < kHoldKindCount) point.total_before = totals_by_kind_[kind];
  return point;
}

void DelayAttribution::undo(const UndoPoint& point) {
  if (point.msg >= per_message_.size()) return;
  if (closed_.size() > point.segments) {
    // The call closed the open segment: unlink and drop it.
    closed_.resize(point.segments);
    next_.resize(point.segments);
    if (point.before.last_closed != kNoSegment) {
      next_[point.before.last_closed] = kNoSegment;
    }
    const auto kind = static_cast<std::size_t>(point.before.reason.kind);
    if (kind < kHoldKindCount) totals_by_kind_[kind] = point.total_before;
  }
  per_message_[point.msg] = point.before;
}

SimTime DelayAttribution::held_time(MessageId msg, HoldPhase phase) const {
  SimTime total = 0;
  for (const HoldSegment& s : segments(msg)) {
    if (s.phase == phase) total += s.duration();
  }
  return total;
}

void write_hold_reason_json(JsonWriter& w, const HoldReason& reason) {
  w.begin_object();
  w.kv("kind", to_string(reason.kind));
  if (reason.blocking_msg.has_value()) {
    w.kv("blocking_msg", *reason.blocking_msg);
  }
  if (reason.blocking_proc.has_value()) {
    w.kv("blocking_proc", static_cast<std::uint64_t>(*reason.blocking_proc));
  }
  w.end_object();
}

void DelayAttribution::write_json(JsonWriter& w,
                                  std::size_t max_messages) const {
  w.begin_object();
  w.kv("segments", segment_count());
  w.key("held_by_reason").begin_object();
  for (std::size_t k = 1; k < kHoldKindCount; ++k) {
    w.kv(to_string(static_cast<HoldKind>(k)), totals_by_kind_[k]);
  }
  w.end_object();
  w.key("messages").begin_array();
  std::size_t written = 0;
  for (MessageId m = 0; m < per_message_.size(); ++m) {
    if (segments(m).empty()) continue;
    if (max_messages != 0 && written >= max_messages) break;
    ++written;
    w.begin_object();
    w.kv("msg", m);
    w.kv("held_send", held_time(m, HoldPhase::kSend));
    w.kv("held_delivery", held_time(m, HoldPhase::kDelivery));
    w.key("segments").begin_array();
    for (const HoldSegment& s : segments(m)) {
      w.begin_object();
      w.kv("phase", to_string(s.phase));
      w.kv("process", static_cast<std::uint64_t>(s.process));
      w.kv("begin", s.begin);
      w.kv("end", s.end);
      w.key("reason");
      write_hold_reason_json(w, s.reason);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace msgorder
