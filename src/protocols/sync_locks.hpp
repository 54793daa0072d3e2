// Logically synchronous ordering via decentralized pairwise locks — the
// binary-interaction approach of the CSP implementations the paper cites
// ([2, 3, 6, 8, 23]), adapted to message passing.
//
// Every process owns a lock with a FIFO grant queue.  To transmit m from
// i to j, the sender acquires the locks of i and j in ascending process
// id (ordered acquisition: no deadlock), emits m, waits for the
// receiver's ack, and releases both locks.  An exchange therefore owns
// both endpoints for its whole send-to-delivery interval:
//   * two exchanges sharing a process are serialized by its lock, and
//   * causality between disjoint exchanges only arises through chains of
//     such serialized intervals,
// so the intervals form an interval order and any linear extension gives
// the SYNC timestamps — every run is logically synchronous.
//
// Unlike the sequencer and the token ring, *disjoint pairs run
// concurrently*: throughput scales with the number of independent pairs
// (bench E6b), at a cost of up to ~6 control packets per message.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class SyncLocksProtocol final : public FieldProtocol<SyncLocksProtocol> {
 public:
  explicit SyncLocksProtocol(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "sync-locks"; }
  bool quiescent() const override {
    return pending_.empty() && !active_.has_value() &&
           !lock_.holder.has_value() && lock_.queue.empty();
  }

  static ProtocolFactory factory();

  template <class S, class IO>
  static void fields(S& self, IO& io) {
    io(self.pending_, self.active_, self.lock_);
  }

 private:
  /// A pending exchange at its *sender*.
  struct Exchange {
    MessageId msg = 0;
    ProcessId first_lock = 0;   // min(self, dst)
    ProcessId second_lock = 0;  // max(self, dst)
    int locks_held = 0;

    template <class S, class IO>
    static void fields(S& x, IO& io) {
      io(x.msg, x.first_lock, x.second_lock);
      io.u8(x.locks_held);
    }
  };

  /// Lock-owner side: grant to the head of the queue when free.
  struct LockState {
    /// Holder exchange, as (sender process, message id); nullopt = free.
    std::optional<std::pair<ProcessId, MessageId>> holder;
    std::deque<std::pair<ProcessId, MessageId>> queue;

    template <class S, class IO>
    static void fields(S& lock, IO& io) { io(lock.holder, lock.queue); }
  };

  // Sender-side steps.
  void start_next_exchange();
  void request_lock(ProcessId owner, MessageId msg);
  void lock_granted(MessageId msg);
  void finish_exchange(MessageId msg);

  // Owner-side steps.
  void enqueue_request(ProcessId requester, MessageId msg);
  void try_grant();
  void release(ProcessId requester, MessageId msg);
  void send_grant(ProcessId requester, MessageId msg);

  Host& host_;
  const bool report_holds_;
  std::deque<MessageId> pending_;            // invoked, not yet started
  std::optional<Exchange> active_;           // exchange we are driving
  LockState lock_;                           // the lock this process owns
};

}  // namespace msgorder
