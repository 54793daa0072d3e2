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

namespace msgorder {

class SyncTokenProtocol final : public Protocol {
 public:
  explicit SyncTokenProtocol(Host& host);

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "sync-token"; }
  bool snapshot(std::string& out) const override;
  bool restore(codec::Reader& in) override;
  /// The idle token circulating is not an obligation; an unsent message
  /// or an unacked exchange is.
  bool quiescent() const override { return pending_.empty() && !awaiting_ack_; }

  static ProtocolFactory factory();

 private:
  void serve_or_pass();
  /// Re-attribute every queued (not yet sent) message: waiting on the
  /// in-flight exchange's ack, or on the token being elsewhere.
  void report_pending_holds();

  Host& host_;
  bool report_holds_ = false;
  std::deque<MessageId> pending_;
  bool holding_ = false;
  bool awaiting_ack_ = false;
};

}  // namespace msgorder
