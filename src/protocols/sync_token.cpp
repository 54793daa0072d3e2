#include "src/protocols/sync_token.hpp"

#include <memory>

namespace msgorder {

SyncTokenProtocol::SyncTokenProtocol(Host& host)
    : FieldProtocol(host.process_count()),
      host_(host),
      report_holds_(host.wants_hold_reasons()) {
  // Process 0 starts with the token and immediately begins circulation.
  if (host_.self() == 0 && host_.process_count() > 1) {
    state_.holding = true;
    serve_or_pass();
  }
}

void SyncTokenProtocol::on_invoke(const Message& m) {
  state_.pending.push_back(m.id);
  if (state_.holding && !state_.awaiting_ack) serve_or_pass();
  report_pending_holds();
}

void SyncTokenProtocol::report_pending_holds() {
  if (!report_holds_) return;
  if (state_.awaiting_ack) {
    // pending.front() is in flight (its x.s happened); everything
    // behind it waits on that exchange's acknowledgement.
    for (std::size_t i = 1; i < state_.pending.size(); ++i) {
      host_.hold(state_.pending[i], HoldReason::ack(state_.pending.front()));
    }
  } else {
    // Not serving means the token is elsewhere on the ring.
    for (const MessageId msg : state_.pending) {
      host_.hold(msg, HoldReason::token());
    }
  }
}

void SyncTokenProtocol::serve_or_pass() {
  if (!state_.holding || state_.awaiting_ack) return;
  if (!state_.pending.empty()) {
    const MessageId msg = state_.pending.front();
    Packet pkt;
    pkt.dst = host_.message(msg).dst;
    pkt.user_msg = msg;
    state_.awaiting_ack = true;
    host_.send_packet(std::move(pkt));
    return;
  }
  state_.holding = false;
  Packet token;
  token.dst = static_cast<ProcessId>((host_.self() + 1) %
                                     host_.process_count());
  token.is_control = true;
  token.kind = "TOKEN";
  host_.send_packet(std::move(token));
}

void SyncTokenProtocol::on_packet(const Packet& packet) {
  if (!packet.is_control) {
    host_.deliver(packet.user_msg);
    Packet ack;
    ack.dst = packet.src;
    ack.is_control = true;
    ack.kind = "ACK";
    host_.send_packet(std::move(ack));
    return;
  }
  if (packet.kind == "TOKEN") {
    state_.holding = true;
    serve_or_pass();
    report_pending_holds();
  } else if (packet.kind == "ACK") {
    state_.pending.pop_front();
    state_.awaiting_ack = false;
    serve_or_pass();
    report_pending_holds();
  }
}

ProtocolFactory SyncTokenProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<SyncTokenProtocol>(host);
  };
}

}  // namespace msgorder
