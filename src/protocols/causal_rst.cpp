#include "src/protocols/causal_rst.hpp"

#include <memory>

namespace msgorder {

void CausalRstProtocol::on_invoke(const Message& m) {
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  Tag::encode(pkt.payload, sent_);
  // Record this send in the local knowledge *after* stamping the tag:
  // the tag describes the causal past of the send event.
  sent_.at(host_.self(), m.dst) += 1;
  host_.send_packet(std::move(pkt));
}

bool CausalRstProtocol::deliverable(const Tag& tag) const {
  const ProcessId self = host_.self();
  for (std::size_t k = 0; k < delivered_.size(); ++k) {
    if (delivered_[k] < tag.sent.at(k, self)) return false;
  }
  return true;
}

ProcessId CausalRstProtocol::blocking_channel(const Tag& tag) const {
  const ProcessId self = host_.self();
  for (std::size_t k = 0; k < delivered_.size(); ++k) {
    if (delivered_[k] < tag.sent.at(k, self)) {
      return static_cast<ProcessId>(k);
    }
  }
  return self;  // unreachable when the tag is genuinely undeliverable
}

void CausalRstProtocol::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (deliverable(it->tag)) {
        host_.deliver(it->msg);
        delivered_[it->src] += 1;
        sent_.merge(it->tag.sent);
        // This message itself is number tag[src][self] + 1 on its channel.
        auto& cell = sent_.at(it->src, host_.self());
        const std::uint32_t with_self = it->tag.sent.at(it->src,
                                                        host_.self()) + 1;
        if (cell < with_self) cell = with_self;
        buffer_.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    for (const Buffered& b : buffer_) {
      host_.hold(b.msg, HoldReason::predecessor(std::nullopt,
                                                blocking_channel(b.tag)));
    }
  }
}

void CausalRstProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  buffer_.push_back({packet.user_msg, packet.src,
                     Tag::decode(packet.payload, host_.process_count())});
  drain();
}

bool CausalRstProtocol::snapshot(std::string& out) const {
  codec::put_matrix_clock(out, sent_);
  for (const std::uint32_t d : delivered_) codec::put_u32(out, d);
  const auto sorted =
      codec::sorted_by(buffer_, [](const Buffered& b) { return b.msg; });
  codec::put_u32(out, static_cast<std::uint32_t>(sorted.size()));
  for (const Buffered* b : sorted) {
    codec::put_u32(out, b->msg);
    codec::put_u32(out, b->src);
    Tag::encode(out, b->tag.sent);
  }
  return true;
}

ProtocolFactory CausalRstProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<CausalRstProtocol>(host);
  };
}

}  // namespace msgorder
