// Logically synchronous ordering via a central sequencer — a *general*
// protocol (it needs control messages, as Theorem 1 proves any
// implementation of X_sync must).
//
// Process 0 doubles as the sequencer and grants one message exchange at
// a time: REQ -> GRANT -> (user message) -> DONE.  At most one user
// message is ever in flight, so the message intervals are disjoint in
// real time and every produced run is logically synchronous.
// Control cost: up to 3 control packets per user message.
#pragma once

#include <deque>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class SyncSequencerProtocol final
    : public FieldProtocol<SyncSequencerProtocol> {
 public:
  explicit SyncSequencerProtocol(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "sync-sequencer"; }
  bool quiescent() const override { return !busy_ && grant_queue_.empty(); }

  static ProtocolFactory factory();

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.busy_, self.grant_queue_); }

 private:
  static constexpr ProcessId kSequencer = 0;

  void request(MessageId msg);                  // sender side
  void granted(MessageId msg);                  // sender side
  void enqueue(ProcessId requester, MessageId msg);  // sequencer side
  void try_grant();                             // sequencer side
  void exchange_done();                         // sequencer side

  Host& host_;
  const bool report_holds_;
  // Sequencer state (only used at process 0).
  std::deque<std::pair<ProcessId, MessageId>> grant_queue_;
  bool busy_ = false;
};

}  // namespace msgorder
