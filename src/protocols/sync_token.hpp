// Logically synchronous ordering via a circulating token — the
// decentralized alternative to the sequencer (ablation E6).  The token
// visits processes in ring order; only the holder may transmit, one
// message at a time, each acknowledged by the receiver before the next.
// Exchanges are therefore serialized globally and every run is
// logically synchronous, at the cost of continuous token circulation
// (control traffic even when idle) and ring-latency before a send.
#pragma once

#include <deque>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class SyncTokenProtocol final : public FieldProtocol<SyncTokenProtocol> {
 public:
  explicit SyncTokenProtocol(Host& host);

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "sync-token"; }
  /// The idle token circulating is not an obligation; an unsent message
  /// or an unacked exchange is.
  bool quiescent() const override {
    return state_.pending.empty() && !state_.awaiting_ack;
  }

  static ProtocolFactory factory();

  /// The whole state, shared with the token-early-release mutant
  /// (src/verify/mutants.cpp).
  struct State {
    bool holding = false;
    bool awaiting_ack = false;
    std::deque<MessageId> pending;

    template <class S, class IO>
    static void fields(S& s, IO& io) {
      io(s.holding, s.awaiting_ack, s.pending);
    }
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.state_); }

 private:
  void serve_or_pass();
  /// Re-attribute every queued (not yet sent) message: waiting on the
  /// in-flight exchange's ack, or on the token being elsewhere.
  void report_pending_holds();

  Host& host_;
  bool report_holds_ = false;
  State state_;
};

}  // namespace msgorder
