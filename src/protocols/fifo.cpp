#include "src/protocols/fifo.hpp"

#include <memory>

namespace msgorder {

Packet FifoProtocol::State::send(const Message& m) {
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  codec::put_u32(pkt.payload, next_out[m.dst]++);
  return pkt;
}

void FifoProtocol::State::Inbox::drain(Host& host) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer.begin(); it != buffer.end(); ++it) {
      if (it->seq == expected) {
        host.deliver(it->msg);
        ++expected;
        buffer.erase(it);
        progressed = true;
        break;
      }
    }
  }
}

bool FifoProtocol::State::quiescent() const {
  for (const auto& [src, inbox] : in) {
    if (!inbox.buffer.empty()) return false;
  }
  return true;
}

void FifoProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  State::Inbox& inbox = state_.in[packet.src];
  inbox.buffer.push_back(
      {packet.user_msg, codec::Reader(packet.payload).u32()});
  inbox.drain(host_);
  if (report_holds_) {
    // Whatever stayed buffered is inhibited by its missing channel
    // predecessor (the message carrying `expected` on this channel).
    for (const State::Pending& p : inbox.buffer) {
      host_.hold(p.msg, HoldReason::predecessor(std::nullopt, packet.src));
    }
  }
}

ProtocolFactory FifoProtocol::factory() {
  return [](Host& host) { return std::make_unique<FifoProtocol>(host); };
}

}  // namespace msgorder
