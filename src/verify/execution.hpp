// One controlled execution of a protocol stack: the verifier's
// replacement for the discrete-event simulator's clock.  An Execution
// holds the live per-process protocol instances, the per-channel
// in-flight packet queues, and the run bookkeeping (trace, user-event
// histories, delay attribution), and exposes the state-space interface
// the model checker drives:
//
//   enabled()  — the schedulable actions of the current state,
//   apply(a)   — execute one action through the SAME delivery-
//                application step the simulator engines use
//                (sim_detail::apply_arrival / classify_send), so a
//                verified schedule and a simulated run execute
//                identical protocol code,
//   push_checkpoint() / rewind() / pop_checkpoint()
//              — the backtracking step: rewind() returns to the newest
//                checkpoint's state (one per DFS frame), and
//   state_key() — the exact key of the full state for the visited-state
//                set: a fixed-width tuple of component ids (see below).
//
// State keys are interned per component, as SPIN's COLLAPSE compression
// does.  Each host's snapshot(), each in-flight packet, each non-empty
// channel's contents and the armed-timer set get an id from an exact
// table (src/verify/intern.hpp) the execution owns, and each process's
// user-event history gets an id from a trie, id(parent, step).  The key
// is the tuple
//
//   host ids[n] | history ids[n] | next_invoke[n] | channel ids[n*n] |
//   timer-set id | drops used
//
// with 0 for an empty channel, history or timer set.  Every entry is an
// exact id, never a hash, so two states share a key iff they are equal.
// Keys are incremental: an action marks dirty only what it can change
// (its own process's host, the channel it receives from, the channels
// it sends into, the timer set), and state_key() re-interns just those.
// A packet is interned the first time its channel is, and a history
// grows its trie id from the steps appended since the last key.
//
// Backtracking restores states instead of re-executing schedules, and
// splits the state in two:
//
//   * Protocol instances step back by Protocol::restore() from the
//     snapshot bytes the host table already holds.  A checkpoint keeps
//     the key of its state, and rewind() restores only the hosts whose
//     id differs from it (or that changed since they were last keyed),
//     so the key is the whole protocol state: a snapshot() that left a
//     field out would lose it on every step back.
//   * Path data — channel contents with their emission uids and queue
//     order, timers, invoke cursors, the send/receive bitmaps, histories,
//     the trace, delay attribution and the counters — steps back
//     exactly through an undo journal: apply() records the inverse of
//     every change it makes, and rewind() undoes the records newer than
//     the checkpoint, newest first.  Uids and queue order must survive,
//     since counterexample schedules name packets by uid and queue order
//     fixes the order of enabled().
//
// The key caches resume from the checkpoint's key, so nothing is
// re-interned.  Without a state cache (the uncached test oracle),
// state_key() is never called; push_checkpoint() then interns just the
// hosts that changed, which is all rewind() needs.
//
// The per-step bookkeeping does not allocate once warmed up: hosts are
// built once per scenario, and the journal, channels, histories and the
// trace keep their capacity across the DFS.
//
// Time is the step index: action k executes at SimTime k, which keeps
// hold-attribution segment arithmetic exact and gives counterexample
// tracelogs monotone timestamps.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/attribution.hpp"
#include "src/obs/tracelog.hpp"
#include "src/poset/user_run.hpp"
#include "src/protocols/protocol.hpp"
#include "src/sim/trace.hpp"
#include "src/verify/intern.hpp"
#include "src/verify/scenario.hpp"

namespace msgorder {

/// One schedulable transition.  Identity is stable along a path: a
/// deliver/drop names its packet by emission uid (not queue position),
/// so sleep-set membership survives sibling exploration.
struct VerifyAction {
  enum class Kind : std::uint8_t { kInvoke, kDeliver, kDrop, kTimer };

  Kind kind = Kind::kInvoke;
  /// The acting process: invoke = the sender, deliver/drop = the
  /// destination, timer = the owner.  Action code only touches this
  /// process's protocol state and its outgoing channels, which is what
  /// makes different-process actions independent.
  ProcessId proc = 0;
  /// Channel source for deliver/drop; unused otherwise.
  ProcessId peer = 0;
  /// invoke: the message id; deliver/drop: the packet uid; timer: the
  /// cookie.
  std::uint64_t id = 0;

  bool operator==(const VerifyAction&) const = default;
};

std::string to_string(const VerifyAction& action);

/// Sleep-set independence: two actions commute when they act at
/// different processes.  Timers are conservatively dependent with
/// everything — their enabledness is globally gated (they only fire
/// when nothing else can run), so commuting them is not sound.
inline bool independent_actions(const VerifyAction& a,
                                const VerifyAction& b) {
  return a.proc != b.proc && a.kind != VerifyAction::Kind::kTimer &&
         b.kind != VerifyAction::Kind::kTimer;
}

class Execution {
 public:
  Execution(const Scenario& scenario, const ProtocolFactory& factory,
            ChannelModel model, std::size_t max_drops);
  /// The hosts hold `this` for the execution's lifetime.
  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;
  ~Execution();

  /// Back to the initial state: fresh protocol instances (the only
  /// place the factory runs), empty channels and histories (cleared in
  /// place, capacity kept), no checkpoints.
  void reset();
  void apply(const VerifyAction& action);

  /// The schedulable actions of the current state, written over
  /// `actions` in deterministic order.  Timers are enabled only when no
  /// invoke/deliver/drop is — the verifier's timer abstraction
  /// (timeouts fire only once the system is otherwise idle;
  /// retransmission timers are the only registry use and only need to
  /// fire after a drop starved the run).
  void enabled(std::vector<VerifyAction>& actions) const;

  bool all_delivered() const {
    return delivered_count_ == scenario_->messages.size();
  }
  /// Every protocol instance reports no outstanding obligations.
  bool protocols_quiescent() const;
  /// A user packet is still sitting in some channel.
  bool user_packets_in_flight() const;

  /// The exact key of the current state (the tuple described at the
  /// top of this file), re-interning only the components dirtied since
  /// the last key; false when some protocol instance does not support
  /// snapshots.  Excludes packet uids and the step counter so idle
  /// control cycles (a circulating token) close.  The span stays valid
  /// until the next mutating call.
  bool state_key(std::span<const std::uint32_t>* out);

  /// The per-process history ids alone: the spec-memo key.  Equal ids
  /// mean equal user views, since the trie is exact.
  std::span<const std::uint32_t> history_ids();

  /// Mark every component dirty: the next state_key() re-interns all of
  /// them (reset() does this; tests compare the result with the
  /// incremental key).
  void invalidate_key();

  /// Save the current state as the newest checkpoint; false when some
  /// protocol instance does not support snapshots.
  bool push_checkpoint();
  /// Return to the newest checkpoint's state, which stays the newest;
  /// a no-op when nothing was applied since.  False when some protocol
  /// instance does not support restore().
  bool rewind();
  void pop_checkpoint();
  /// Protocol instances rewind() has restored so far.
  std::size_t restored_hosts() const { return restored_hosts_; }

  /// The live protocol instance at `p`.
  const Protocol& protocol(ProcessId p) const { return *protocols_[p]; }

  /// Counts for msgorder.verify/2: distinct entries of the component
  /// tables, and component lookups made while keying.
  struct KeyStats {
    std::size_t interned_hosts = 0;
    std::size_t interned_channels = 0;
    std::size_t interned_packets = 0;
    std::size_t interned_history_nodes = 0;
    std::size_t reinterned = 0;
  };
  KeyStats key_stats() const;

  /// The delivered run as a user-view poset (needs all_delivered()).
  std::optional<UserRun> user_run(std::string* error) const;

  const Trace& trace() const { return trace_; }
  const DelayAttribution& attribution() const { return attribution_; }
  std::size_t steps() const { return step_; }

  /// Attach a tracelog writer: every subsequent record/hold is
  /// appended (counterexample replay).  Caller keeps ownership and
  /// calls begin_run/finish itself.
  void set_tracelog(TraceLogWriter* writer) { tracelog_ = writer; }

 private:
  class ProcHost;
  friend class ProcHost;

  static constexpr std::uint32_t kUnkeyed = UINT32_MAX;

  struct InFlight {
    Packet packet;
    std::uint64_t uid = 0;
    /// The packet's interned id (is_control, kind, user_msg and
    /// payload, never the uid), set when its channel is first keyed.
    std::uint32_t id = kUnkeyed;
  };

  /// One journal record: the inverse of one change apply() made.
  struct Undo {
    enum class Kind : std::uint8_t {
      kInvoke,       // next_invoke_[proc] advanced
      kSendSeen,     // send_seen_[index] set
      kReceiveSeen,  // receive_seen_[index] set
      kRecord,       // event kind `index` recorded at proc
      kHold,         // an attribution report (in hold_undo_)
      kPush,         // a packet appended to channel `index`
      kErase,        // channel `index` lost the packet at `value`
                     // (kept in erased_)
      kArm,          // timer (proc, value) armed
      kFire,         // timer (proc, value) fired
    };
    Kind kind = Kind::kInvoke;
    ProcessId proc = 0;
    std::uint32_t index = 0;
    std::uint64_t value = 0;
  };

  /// What rewind() puts back besides the journal: its length and the
  /// scalars, trace counters and key caches of the checkpointed state.
  struct Checkpoint {
    std::size_t journal = 0;
    std::size_t step = 0;
    std::uint64_t next_uid = 0;
    std::size_t drops_used = 0;
    std::size_t delivered_count = 0;
    TraceCounts counts;
    /// Every channel and the timer set were keyed (state_key() ran).
    bool keyed = false;
  };

  std::size_t channel_index(ProcessId src, ProcessId dst) const {
    return src * scenario_->n_processes + dst;
  }
  bool key_hosts();
  void key_histories();
  void undo(const Undo& u);
  bool restore_host(ProcessId p, std::uint32_t id);
  std::uint32_t key_channel(std::size_t c);
  std::uint32_t key_timers();
  void record(ProcessId at, SystemEvent e);
  void on_hold(ProcessId at, MessageId msg, const HoldReason& reason);
  void send_from(ProcessId from, Packet packet);
  SimTime now() const { return static_cast<SimTime>(step_); }

  const Scenario* scenario_;
  ProtocolFactory factory_;
  ChannelModel model_;
  std::size_t max_drops_;

  std::vector<std::unique_ptr<ProcHost>> hosts_;
  std::vector<std::unique_ptr<Protocol>> protocols_;
  /// In-flight packets per channel, indexed src * n + dst (so a scan
  /// visits channels in (src, dst) order), each in emission order.
  std::vector<std::vector<InFlight>> channels_;
  /// Armed timers as (process, cookie), sorted and unique; re-arming is
  /// idempotent.
  std::vector<std::pair<ProcessId, std::uint64_t>> timers_;
  /// Per-process invoke program and progress cursor.
  std::vector<std::vector<MessageId>> invoke_order_;
  std::vector<std::size_t> next_invoke_;

  std::vector<std::uint8_t> send_seen_;
  std::vector<std::uint8_t> receive_seen_;
  std::vector<std::vector<ScheduleStep>> histories_;
  /// Initial-state copies that reset() assigns from (reusing storage).
  const Trace blank_trace_;
  const DelayAttribution blank_attribution_;
  Trace trace_;
  DelayAttribution attribution_;

  /// The exact component tables, one set per execution.
  Interner host_ids_;
  Interner packet_ids_;
  Interner channel_ids_;
  Interner timer_ids_;
  Interner history_trie_;
  /// The current state key, valid for every component not marked dirty.
  std::vector<std::uint32_t> key_;
  std::vector<std::uint8_t> host_dirty_;
  std::vector<std::uint8_t> channel_dirty_;
  bool timers_dirty_ = true;
  /// Per process: how many history steps key_'s history id covers.
  std::vector<std::size_t> history_keyed_;
  std::size_t reinterned_ = 0;

  /// The undo journal, and the side stacks its kErase and kHold records
  /// pop: the erased packets and the attribution undo points.
  std::vector<Undo> journal_;
  std::vector<InFlight> erased_;
  std::vector<DelayAttribution::UndoPoint> hold_undo_;
  std::vector<Checkpoint> checkpoints_;
  /// Per checkpoint, back to back: its key_, then its history_keyed_.
  std::vector<std::uint32_t> checkpoint_words_;
  std::size_t restored_hosts_ = 0;
  /// Encoding buffers reused across keys.
  std::string bytes_;
  std::vector<std::uint32_t> words_;
  std::size_t delivered_count_ = 0;
  std::size_t drops_used_ = 0;
  std::size_t step_ = 0;
  std::uint64_t next_uid_ = 0;
  TraceLogWriter* tracelog_ = nullptr;
};

}  // namespace msgorder
