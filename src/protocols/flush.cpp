#include "src/protocols/flush.hpp"

#include <memory>

namespace msgorder {

bool FlushChannelProtocol::ChannelIn::is_delivered(
    std::uint32_t seq) const {
  return seq < delivered.size() && delivered[seq];
}

bool FlushChannelProtocol::ChannelIn::all_delivered_below(
    std::uint32_t seq) const {
  if (seq > delivered.size()) return false;  // gaps we have not even seen
  for (std::uint32_t s = 0; s < seq; ++s) {
    if (!delivered[s]) return false;
  }
  return true;
}

void FlushChannelProtocol::on_invoke(const Message& m) {
  ChannelOut& out = out_[m.dst];
  Tag tag;
  tag.seq = out.next_seq++;
  tag.barrier = out.last_barrier;
  tag.kind = m.color;
  if (m.color == kBackwardFlush || m.color == kTwoWayFlush) {
    out.last_barrier = tag.seq;
  }
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  codec::save(tag, pkt.payload);
  host_.send_packet(std::move(pkt));
}

bool FlushChannelProtocol::deliverable(const ChannelIn& in,
                                       const Tag& tag) const {
  if (tag.kind == kForwardFlush || tag.kind == kTwoWayFlush) {
    return in.all_delivered_below(tag.seq);
  }
  if (tag.barrier == Tag::kNoBarrier) return true;
  return in.is_delivered(tag.barrier);
}

void FlushChannelProtocol::drain(ProcessId src, ChannelIn& in) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = in.buffer.begin(); it != in.buffer.end(); ++it) {
      if (deliverable(in, it->second)) {
        host_.deliver(it->first);
        if (it->second.seq >= in.delivered.size()) {
          in.delivered.resize(it->second.seq + 1, false);
        }
        in.delivered[it->second.seq] = true;
        in.buffer.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    // Still-buffered messages wait on their flush barrier (or, for a
    // forward/two-way flush, the channel's whole earlier prefix).
    for (const auto& [msg, tag] : in.buffer) {
      (void)tag;
      host_.hold(msg, HoldReason::flush(src));
    }
  }
}

void FlushChannelProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  ChannelIn& in = in_[packet.src];
  in.buffer.emplace_back(
      packet.user_msg,
      codec::decode<Tag>(packet.payload, host_.process_count()));
  drain(packet.src, in);
}

bool FlushChannelProtocol::quiescent() const {
  for (const auto& [src, ch] : in_) {
    if (!ch.buffer.empty()) return false;
  }
  return true;
}

ProtocolFactory FlushChannelProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<FlushChannelProtocol>(host);
  };
}

}  // namespace msgorder
