#include "src/protocols/causal_rst.hpp"

#include <memory>

namespace msgorder {

Packet CausalRstProtocol::State::send(const Message& m, ProcessId self) {
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  codec::FieldWriter io(pkt.payload);
  Tag::fields(*this, io);
  // Record this send in the local knowledge *after* stamping the tag:
  // the tag describes the causal past of the send event.
  sent.at(self, m.dst) += 1;
  return pkt;
}

bool CausalRstProtocol::State::deliverable(const Tag& tag,
                                           ProcessId self) const {
  for (std::size_t k = 0; k < delivered.size(); ++k) {
    if (delivered[k] < tag.sent.at(k, self)) return false;
  }
  return true;
}

ProcessId CausalRstProtocol::blocking_channel(const Tag& tag) const {
  const ProcessId self = host_.self();
  for (std::size_t k = 0; k < state_.delivered.size(); ++k) {
    if (state_.delivered[k] < tag.sent.at(k, self)) {
      return static_cast<ProcessId>(k);
    }
  }
  return self;  // unreachable when the tag is genuinely undeliverable
}

void CausalRstProtocol::drain() {
  std::vector<State::Buffered>& buffer = state_.buffer;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer.begin(); it != buffer.end(); ++it) {
      if (state_.deliverable(it->tag, host_.self())) {
        host_.deliver(it->msg);
        state_.delivered[it->src] += 1;
        state_.sent.merge(it->tag.sent);
        // This message itself is number tag[src][self] + 1 on its channel.
        auto& cell = state_.sent.at(it->src, host_.self());
        const std::uint32_t with_self = it->tag.sent.at(it->src,
                                                        host_.self()) + 1;
        if (cell < with_self) cell = with_self;
        buffer.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    for (const State::Buffered& b : buffer) {
      host_.hold(b.msg, HoldReason::predecessor(std::nullopt,
                                                blocking_channel(b.tag)));
    }
  }
}

void CausalRstProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  state_.buffer.push_back(
      {packet.user_msg, packet.src,
       codec::decode<Tag>(packet.payload, host_.process_count())});
  drain();
}

ProtocolFactory CausalRstProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<CausalRstProtocol>(host);
  };
}

}  // namespace msgorder
