// The operational protocol interface used by the discrete-event
// simulator.  A protocol instance runs at each process and mediates the
// four-part life of a message (Section 3.1):
//
//   invoke  x.s* : the application asks to send (on_invoke),
//   send    x.s  : the protocol emits the user packet (host.send_packet),
//   receive x.r* : the packet arrives (on_packet),
//   deliver x.r  : the protocol hands it to the application (host.deliver).
//
// Tagged protocols piggyback data on user packets (Packet::payload);
// general protocols additionally exchange control packets
// (Packet::is_control).  Tagless protocols do neither.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/poset/event.hpp"

namespace msgorder {

using SimTime = double;

/// Why a protocol is currently inhibiting (holding) a message rather
/// than releasing it — the observable face of the paper's inhibitor
/// (§3.2: a protocol *is* the set of events it delays).  The taxonomy
/// is deliberately coarse: one kind per mechanism, refined by the
/// optional blocking message / process below (ISSUE 4).
enum class HoldKind : std::uint8_t {
  kNone = 0,         // not held (never reported; the attribution default)
  kWaitPredecessor,  // a causally/sequence-prior delivery is missing
  kWaitToken,        // the circulating transmit token is elsewhere
  kWaitFlush,        // a flush barrier's prefix is incomplete
  kWaitSeq,          // waiting on the central sequencer's grant
  kWaitLock,         // an endpoint lock is owned by another exchange
  kWaitAck,          // an earlier exchange's acknowledgement is pending
};
constexpr std::size_t kHoldKindCount = 7;

/// Stable lower-snake name ("wait_predecessor", ...), used for metric
/// names and every JSON schema that carries hold reasons.
std::string to_string(HoldKind kind);

/// A structured hold reason: the mechanism plus, when the protocol can
/// name it, the specific message or process the hold is waiting on.
struct HoldReason {
  HoldKind kind = HoldKind::kNone;
  /// The message whose delivery/ack unblocks this one, if known.
  std::optional<MessageId> blocking_msg;
  /// The process the hold waits on (missing predecessor's channel,
  /// token holder, sequencer, lock owner), if known.
  std::optional<ProcessId> blocking_proc;

  bool operator==(const HoldReason&) const = default;

  static HoldReason predecessor(std::optional<MessageId> msg,
                                std::optional<ProcessId> proc) {
    return {HoldKind::kWaitPredecessor, msg, proc};
  }
  static HoldReason token() { return {HoldKind::kWaitToken, {}, {}}; }
  static HoldReason flush(std::optional<ProcessId> proc) {
    return {HoldKind::kWaitFlush, {}, proc};
  }
  static HoldReason sequencer(ProcessId seq) {
    return {HoldKind::kWaitSeq, {}, seq};
  }
  static HoldReason lock(std::optional<MessageId> msg,
                         std::optional<ProcessId> owner) {
    return {HoldKind::kWaitLock, msg, owner};
  }
  static HoldReason ack(MessageId msg) {
    return {HoldKind::kWaitAck, msg, {}};
  }
};

struct Packet {
  ProcessId src = 0;
  ProcessId dst = 0;
  bool is_control = false;
  /// The user message carried (valid iff !is_control).
  MessageId user_msg = 0;
  /// Protocol-specific label for diagnostics ("REQ", "TOKEN", ...).
  std::string kind;
  /// Everything the protocol carries: the tag on a user packet, the
  /// body of a control packet.  Written with the codec::put_* helpers
  /// (src/protocols/state_codec.hpp) and read back with codec::Reader.
  /// Its size is the overhead metric of bench E2 (tag bytes on user
  /// packets, control bytes on control packets), and the verifier
  /// interns it so in-flight packets that carry different data stay
  /// different states.
  std::string payload;
};

/// Services the simulator offers a protocol instance.
class Host {
 public:
  virtual ~Host() = default;

  /// Put a packet on the network (from this instance's process).  For a
  /// user packet this is the send event x.s.  On a lossy network the
  /// packet may be dropped (see NetworkOptions::loss_probability); the
  /// trace records x.s on the first emission of each user message and
  /// x.r* on its first arrival, so retransmissions are transparent to
  /// the run model.
  virtual void send_packet(Packet packet) = 0;

  /// Hand a received user message to the application: the delivery event
  /// x.r.  Must be called exactly once per message addressed here.
  virtual void deliver(MessageId msg) = 0;

  /// Schedule on_timer(cookie) at now() + delay.  Timers are local and
  /// never lost.
  virtual void set_timer(SimTime delay, std::uint64_t cookie) = 0;

  /// Inhibition attribution (ISSUE 4).  A protocol that decides *not*
  /// to release a message right now reports why: before the message's
  /// send event this attributes the send delay (x.s* -> x.s), after its
  /// receive event the delivery delay (x.r* -> x.r).  Re-reporting with
  /// a new reason closes the previous attribution segment; the matching
  /// release is implicit in the send/deliver event, so per-message
  /// per-reason hold times always sum exactly to the recorded delays.
  /// The default is a no-op; hosts that collect attribution return true
  /// from wants_hold_reasons(), letting protocols skip computing
  /// reasons (and the re-reports on every drain pass) on the zero-cost
  /// path.
  virtual void hold(MessageId msg, const HoldReason& reason) {
    (void)msg;
    (void)reason;
  }
  virtual bool wants_hold_reasons() const { return false; }

  virtual SimTime now() const = 0;
  virtual ProcessId self() const = 0;
  virtual std::size_t process_count() const = 0;

  /// The full message record for a user message id (color, endpoints).
  virtual const Message& message(MessageId msg) const = 0;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// The application requested transmission of m (the invoke event; the
  /// simulator records x.s* before calling this).
  virtual void on_invoke(const Message& m) = 0;

  /// A packet addressed to this process arrived (for a user packet the
  /// simulator records x.r* before calling this).
  virtual void on_packet(const Packet& packet) = 0;

  /// A timer set via Host::set_timer fired.
  virtual void on_timer(std::uint64_t cookie) { (void)cookie; }

  virtual std::string name() const = 0;

  /// Verifier hooks (ISSUE 10).  snapshot() appends a *canonical*
  /// encoding of the instance's full state — two instances that would
  /// behave identically on every future input must encode identically,
  /// and counters that only grow with control chatter (emission counts,
  /// timer ids) must be left out so idle control cycles close in the
  /// visited-state set.  Returns false when the protocol does not
  /// support canonical snapshots; the verifier then explores without
  /// its state cache, which stays sound but is exponential on a stack
  /// with control cycles.  Every registry stack implements it.
  virtual bool snapshot(std::string& out) const {
    (void)out;
    return false;
  }

  /// No internal obligations outstanding: nothing buffered for
  /// delivery, no lock held, no ack awaited, no grant in progress.
  /// Perpetual background traffic (a circulating idle token) does NOT
  /// count as an obligation.  The verifier's control-leak check demands
  /// that every complete execution can reach a state where all
  /// instances are quiescent.
  virtual bool quiescent() const { return true; }
};

/// Creates the per-process instance; `host` outlives the protocol.
using ProtocolFactory = std::function<std::unique_ptr<Protocol>(Host& host)>;

}  // namespace msgorder
