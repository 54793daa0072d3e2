// Per-message delay attribution (ISSUE 4 tentpole): the paper's
// inhibitor made measurable.  The simulator forwards every
// Host::hold(msg, reason) here; segments open at the report time and
// close when the reason changes or the inhibited event (x.s or x.r)
// finally executes.  Because protocols report the *first* hold at the
// moment they decline to release (invoke time on the send side,
// receive time on the delivery side) and consecutive segments share
// their boundary instant, the per-reason segment times of a message sum
// exactly to its recorded send/delivery delay — asserted across the
// protocol registry by tests/obs_attribution_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/protocols/protocol.hpp"

namespace msgorder {

class JsonWriter;

/// Which of a message's two inhibitable transitions a hold delays.
enum class HoldPhase : std::uint8_t {
  kSend,      // x.s* -> x.s, released by the send event
  kDelivery,  // x.r* -> x.r, released by the delivery event
};

std::string to_string(HoldPhase phase);

/// One closed attribution interval: `reason` held `msg` at `process`
/// over [begin, end].
struct HoldSegment {
  MessageId msg = 0;
  ProcessId process = 0;  // where the hold happened (src / dst)
  HoldPhase phase = HoldPhase::kDelivery;
  HoldReason reason;
  SimTime begin = 0;
  SimTime end = 0;

  SimTime duration() const { return end - begin; }
};

/// The run-level attribution table: per message, the closed hold
/// segments in time order, plus aggregate per-reason totals.  Single
/// writer (the simulator engine); size is known up front so hot-path
/// appends never rehash.  Closed segments live in one run-wide log,
/// chained per message, so closing a segment allocates nothing per
/// message.
class DelayAttribution {
 public:
  /// One message's closed segments in time order (a forward range over
  /// the run-wide log).
  class SegmentRange {
   public:
    class iterator {
     public:
      const HoldSegment& operator*() const { return owner_->closed_[i_]; }
      iterator& operator++() {
        i_ = owner_->next_[i_];
        return *this;
      }
      bool operator==(const iterator& other) const { return i_ == other.i_; }

     private:
      friend class SegmentRange;
      iterator(const DelayAttribution* owner, std::uint32_t i)
          : owner_(owner), i_(i) {}
      const DelayAttribution* owner_;
      std::uint32_t i_;
    };

    iterator begin() const { return {owner_, first_}; }
    iterator end() const { return {owner_, kNoSegment}; }
    bool empty() const { return first_ == kNoSegment; }

   private:
    friend class DelayAttribution;
    SegmentRange(const DelayAttribution* owner, std::uint32_t first)
        : owner_(owner), first_(first) {}
    const DelayAttribution* owner_;
    std::uint32_t first_;
  };

  explicit DelayAttribution(std::size_t n_messages);

  /// A protocol (re-)reported a hold.  A same-reason re-report extends
  /// the open segment; a new reason closes it at `now` and opens the
  /// next one.  Returns the closed segment, if this report closed one
  /// (valid until the next call that closes one).  `process` is the
  /// process the report came from.
  const HoldSegment* on_hold(MessageId msg, ProcessId process,
                             HoldPhase phase, const HoldReason& reason,
                             SimTime now);

  /// The inhibited event executed: close any open segment of `phase` at
  /// `now`.  Returns the closed segment, if any (valid until the next
  /// call that closes one).
  const HoldSegment* on_release(MessageId msg, HoldPhase phase,
                                SimTime now);

  std::size_t message_count() const { return per_message_.size(); }
  SegmentRange segments(MessageId msg) const {
    return {this, per_message_[msg].first_closed};
  }
  /// Sum of closed-segment durations of one phase for one message.
  SimTime held_time(MessageId msg, HoldPhase phase) const;
  /// Run-wide total held time per reason kind (both phases).
  const std::array<SimTime, kHoldKindCount>& totals_by_kind() const {
    return totals_by_kind_;
  }
  std::uint64_t segment_count() const { return closed_.size(); }
  /// Every closed segment of the run, in closing order.
  const std::vector<HoldSegment>& closed_segments() const { return closed_; }
  /// True iff `msg` has a hold segment that was never closed by a
  /// release — in a complete run this means the engine recorded no
  /// matching send/delivery for a reported inhibition.
  bool has_open_hold(MessageId msg) const {
    return per_message_[msg].open;
  }

  /// Step-back support for the exhaustive verifier, which walks one
  /// path and backtracks along it: take undo_point(msg) right before
  /// an on_hold()/on_release() for `msg`, and undo() puts everything
  /// that call changed back.  Undo newest first.
  class UndoPoint;
  UndoPoint undo_point(MessageId msg) const;
  void undo(const UndoPoint& point);

  /// Append the "attribution" report section: per-reason totals plus
  /// the per-message table (only messages that were ever held), as an
  /// open value for the current key (schema part of
  /// msgorder.run_report/1, see DESIGN.md "Observability").
  void write_json(JsonWriter& w, std::size_t max_messages = 0) const;

 private:
  static constexpr std::uint32_t kNoSegment = ~std::uint32_t{0};

  struct PerMessage {
    bool open = false;
    HoldPhase phase = HoldPhase::kDelivery;
    HoldReason reason;
    ProcessId process = 0;
    SimTime begin = 0;
    /// First and last of this message's closed segments in closed_.
    std::uint32_t first_closed = kNoSegment;
    std::uint32_t last_closed = kNoSegment;
  };

  const HoldSegment* close_open(PerMessage& pm, SimTime now);

 public:
  class UndoPoint {
    friend class DelayAttribution;
    MessageId msg = 0;
    PerMessage before;
    std::uint32_t segments = 0;
    /// The total a close would add to: the open segment's kind.
    SimTime total_before = 0;
  };

 private:
  std::vector<PerMessage> per_message_;
  /// Every closed segment of the run, in closing order; next_[i] is the
  /// next closed segment of the same message (kNoSegment at the end).
  std::vector<HoldSegment> closed_;
  std::vector<std::uint32_t> next_;
  std::array<SimTime, kHoldKindCount> totals_by_kind_{};
};

/// Serialize one hold reason as an object ({"kind": "...", optional
/// "blocking_msg"/"blocking_proc"}).
void write_hold_reason_json(JsonWriter& w, const HoldReason& reason);

}  // namespace msgorder
