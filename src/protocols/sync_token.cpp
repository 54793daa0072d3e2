#include "src/protocols/sync_token.hpp"

#include <memory>

#include "src/protocols/state_codec.hpp"

namespace msgorder {

SyncTokenProtocol::SyncTokenProtocol(Host& host)
    : host_(host), report_holds_(host.wants_hold_reasons()) {
  // Process 0 starts with the token and immediately begins circulation.
  if (host_.self() == 0 && host_.process_count() > 1) {
    holding_ = true;
    serve_or_pass();
  }
}

void SyncTokenProtocol::on_invoke(const Message& m) {
  pending_.push_back(m.id);
  if (holding_ && !awaiting_ack_) serve_or_pass();
  report_pending_holds();
}

void SyncTokenProtocol::report_pending_holds() {
  if (!report_holds_) return;
  if (awaiting_ack_) {
    // pending_.front() is in flight (its x.s happened); everything
    // behind it waits on that exchange's acknowledgement.
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      host_.hold(pending_[i], HoldReason::ack(pending_.front()));
    }
  } else {
    // Not serving means the token is elsewhere on the ring.
    for (const MessageId msg : pending_) {
      host_.hold(msg, HoldReason::token());
    }
  }
}

void SyncTokenProtocol::serve_or_pass() {
  if (!holding_ || awaiting_ack_) return;
  if (!pending_.empty()) {
    const MessageId msg = pending_.front();
    Packet pkt;
    pkt.dst = host_.message(msg).dst;
    pkt.user_msg = msg;
    awaiting_ack_ = true;
    host_.send_packet(std::move(pkt));
    return;
  }
  holding_ = false;
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
    holding_ = true;
    serve_or_pass();
    report_pending_holds();
  } else if (packet.kind == "ACK") {
    pending_.pop_front();
    awaiting_ack_ = false;
    serve_or_pass();
    report_pending_holds();
  }
}

bool SyncTokenProtocol::snapshot(std::string& out) const {
  codec::put_u8(out, holding_ ? 1 : 0);
  codec::put_u8(out, awaiting_ack_ ? 1 : 0);
  codec::put_u32(out, static_cast<std::uint32_t>(pending_.size()));
  for (const MessageId msg : pending_) codec::put_u32(out, msg);
  return true;
}

bool SyncTokenProtocol::restore(codec::Reader& in) {
  holding_ = in.u8() != 0;
  awaiting_ack_ = in.u8() != 0;
  pending_.resize(in.u32());
  for (MessageId& msg : pending_) msg = in.u32();
  return true;
}

ProtocolFactory SyncTokenProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<SyncTokenProtocol>(host);
  };
}

}  // namespace msgorder
