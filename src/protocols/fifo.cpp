#include "src/protocols/fifo.hpp"

#include <memory>

#include "src/protocols/state_codec.hpp"

namespace msgorder {

void FifoProtocol::on_invoke(const Message& m) {
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  codec::put_u32(pkt.payload, next_out_[m.dst]++);
  host_.send_packet(std::move(pkt));
}

void FifoProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  const std::uint32_t seq = codec::Reader(packet.payload).u32();
  auto& expected = next_in_[packet.src];
  auto& buffer = buffer_[packet.src];
  buffer.push_back({packet.user_msg, seq});
  // Drain everything now in sequence.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer.begin(); it != buffer.end(); ++it) {
      if (it->seq == expected) {
        host_.deliver(it->msg);
        ++expected;
        buffer.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    // Whatever stayed buffered is inhibited by its missing channel
    // predecessor (the message carrying `expected` on this channel).
    for (const Pending& p : buffer) {
      host_.hold(p.msg, HoldReason::predecessor(std::nullopt, packet.src));
    }
  }
}

bool FifoProtocol::snapshot(std::string& out) const {
  codec::put_u32_map(out, next_out_);
  codec::put_u32_map(out, next_in_);
  codec::put_u32(out, static_cast<std::uint32_t>(buffer_.size()));
  for (const auto& [src, pendings] : buffer_) {
    codec::put_u32(out, src);
    codec::put_u32(out, static_cast<std::uint32_t>(pendings.size()));
    for (const Pending* p :
         codec::sorted_by(pendings, [](const Pending& x) { return x.seq; })) {
      codec::put_u32(out, p->msg);
      codec::put_u32(out, p->seq);
    }
  }
  return true;
}

bool FifoProtocol::restore(codec::Reader& in) {
  codec::read_u32_map(in, next_out_);
  codec::read_u32_map(in, next_in_);
  buffer_.clear();
  for (std::uint32_t k = in.u32(); k > 0; --k) {
    std::vector<Pending>& pendings = buffer_[in.u32()];
    pendings.resize(in.u32());
    for (Pending& p : pendings) {
      p.msg = in.u32();
      p.seq = in.u32();
    }
  }
  return true;
}

bool FifoProtocol::quiescent() const {
  for (const auto& [src, pendings] : buffer_) {
    if (!pendings.empty()) return false;
  }
  return true;
}

ProtocolFactory FifoProtocol::factory() {
  return [](Host& host) { return std::make_unique<FifoProtocol>(host); };
}

}  // namespace msgorder
