// One controlled execution of a protocol stack (ISSUE 10): the
// verifier's replacement for the discrete-event simulator's clock.  An
// Execution holds the live per-process protocol instances, the
// per-channel in-flight packet queues, and the run bookkeeping (trace,
// user-event histories, delay attribution), and exposes the state-space
// interface the model checker drives:
//
//   enabled()  — the schedulable actions of the current state,
//   apply(a)   — execute one action through the SAME delivery-
//                application step the simulator engines use
//                (sim_detail::apply_arrival / classify_send), so a
//                verified schedule and a simulated run execute
//                identical protocol code,
//   replay(s)  — reset and re-execute a schedule prefix (the stateless
//                backtracking step, which the verifier takes lazily:
//                only right before a sibling action runs), and
//   fingerprint() — a canonical encoding of the full state for the
//                visited-state set, built from the protocols' own
//                snapshot() hooks plus channel/timer/history digests.
//
// The per-step bookkeeping does not allocate once warmed up: hosts are
// built once, and reset() clears channels, histories and the trace in
// place so they keep their capacity across the DFS's many replays.
//
// Time is the step index: action k executes at SimTime k, which keeps
// hold-attribution segment arithmetic exact and gives counterexample
// tracelogs monotone timestamps.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/attribution.hpp"
#include "src/obs/tracelog.hpp"
#include "src/poset/user_run.hpp"
#include "src/protocols/protocol.hpp"
#include "src/sim/trace.hpp"
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

  /// Back to the initial state: fresh protocol instances, empty
  /// channels and histories (cleared in place, capacity kept).
  void reset();
  /// reset() then apply every action of `schedule` in order.  The state
  /// reached depends only on the schedule, so replaying a prefix lands
  /// exactly where the DFS left that prefix.
  void replay(const std::vector<VerifyAction>& schedule);
  void apply(const VerifyAction& action);

  /// The schedulable actions of the current state, in deterministic
  /// order.  Timers are enabled only when no invoke/deliver/drop is —
  /// the verifier's timer abstraction (timeouts fire only once the
  /// system is otherwise idle; retransmission timers are the only
  /// registry use and only need to fire after a drop starved the run).
  std::vector<VerifyAction> enabled() const;

  bool all_delivered() const {
    return delivered_count_ == scenario_->messages.size();
  }
  /// Every protocol instance reports no outstanding obligations.
  bool protocols_quiescent() const;
  /// A user packet is still sitting in some channel.
  bool user_packets_in_flight() const;

  /// Canonical full-state encoding for the visited-state set, written
  /// over `out` (pass the same buffer each time to reuse its storage);
  /// false when some protocol instance does not support snapshots (the
  /// verifier then runs uncached).  Excludes packet uids and the step
  /// counter so idle control cycles (a circulating token) close.
  bool fingerprint(std::string& out) const;

  /// The user-event histories alone, written over `out`: the full
  /// (collision-free) spec-check memo key.  Each process's block is
  /// encoded exactly as in fingerprint().
  void history_key(std::string& out) const;

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

  struct InFlight {
    Packet packet;
    std::uint64_t uid = 0;
    /// The packet's channel digest, computed once as it enters the
    /// channel: is_control, kind, user_msg and payload, never the uid.
    std::uint64_t digest = 0;
  };

  void put_history(std::string& out, ProcessId p) const;
  std::vector<InFlight>& channel(ProcessId src, ProcessId dst) {
    return channels_[src * scenario_->n_processes + dst];
  }
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
  /// One channel's packet digests while fingerprint() sorts them.
  mutable std::vector<std::uint64_t> digests_;
  std::size_t delivered_count_ = 0;
  std::size_t drops_used_ = 0;
  std::size_t step_ = 0;
  std::uint64_t next_uid_ = 0;
  TraceLogWriter* tracelog_ = nullptr;
};

}  // namespace msgorder
