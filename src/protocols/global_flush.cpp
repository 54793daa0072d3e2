#include "src/protocols/global_flush.hpp"

#include <memory>

namespace msgorder {

void GlobalFlushProtocol::on_invoke(const Message& m) {
  const bool red = (m.color == red_color_);
  if (red) {
    // Everything known-sent so far must precede this message everywhere.
    red_frontier_.merge(sent_);
  }
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  Tag::encode(pkt.payload, sent_, red_frontier_, red);
  sent_.at(host_.self(), m.dst) += 1;
  host_.send_packet(std::move(pkt));
}

bool GlobalFlushProtocol::prefix_complete(std::size_t k,
                                          std::uint32_t n) const {
  const auto& seqs = delivered_seqs_[k];
  if (seqs.size() < n) return false;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!seqs[s]) return false;
  }
  return true;
}

bool GlobalFlushProtocol::deliverable(const Tag& tag) const {
  const ProcessId self = host_.self();
  for (std::size_t k = 0; k < delivered_seqs_.size(); ++k) {
    if (!prefix_complete(k, tag.red_frontier.at(k, self))) return false;
    if (tag.red && !prefix_complete(k, tag.sent.at(k, self))) {
      return false;
    }
  }
  return true;
}

ProcessId GlobalFlushProtocol::blocking_channel(const Tag& tag) const {
  const ProcessId self = host_.self();
  for (std::size_t k = 0; k < delivered_seqs_.size(); ++k) {
    if (!prefix_complete(k, tag.red_frontier.at(k, self)) ||
        (tag.red && !prefix_complete(k, tag.sent.at(k, self)))) {
      return static_cast<ProcessId>(k);
    }
  }
  return self;  // unreachable when the tag is genuinely undeliverable
}

void GlobalFlushProtocol::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (deliverable(it->tag)) {
        host_.deliver(it->msg);
        // This message's channel sequence number is the sender's
        // pre-send count for this channel.
        const std::uint32_t seq = it->tag.sent.at(it->src, host_.self());
        auto& seqs = delivered_seqs_[it->src];
        if (seqs.size() <= seq) seqs.resize(seq + 1, false);
        seqs[seq] = true;
        sent_.merge(it->tag.sent);
        auto& cell = sent_.at(it->src, host_.self());
        const std::uint32_t with_self = seq + 1;
        if (cell < with_self) cell = with_self;
        red_frontier_.merge(it->tag.red_frontier);
        if (it->tag.red) {
          // The red message itself now bounds later ordinary traffic.
          red_frontier_.merge(it->tag.sent);
        }
        buffer_.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    for (const Buffered& b : buffer_) {
      host_.hold(b.msg, HoldReason::flush(blocking_channel(b.tag)));
    }
  }
}

void GlobalFlushProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  buffer_.push_back({packet.user_msg, packet.src,
                     Tag::decode(packet.payload, host_.process_count())});
  drain();
}

bool GlobalFlushProtocol::snapshot(std::string& out) const {
  codec::put_u32(out, static_cast<std::uint32_t>(red_color_));
  codec::put_matrix_clock(out, sent_);
  codec::put_matrix_clock(out, red_frontier_);
  codec::put_u32(out, static_cast<std::uint32_t>(delivered_seqs_.size()));
  for (const auto& seqs : delivered_seqs_) {
    codec::put_u32(out, static_cast<std::uint32_t>(seqs.size()));
    for (const bool s : seqs) codec::put_u8(out, s ? 1 : 0);
  }
  const auto sorted =
      codec::sorted_by(buffer_, [](const Buffered& b) { return b.msg; });
  codec::put_u32(out, static_cast<std::uint32_t>(sorted.size()));
  for (const Buffered* b : sorted) {
    codec::put_u32(out, b->msg);
    codec::put_u32(out, b->src);
    Tag::encode(out, b->tag.sent, b->tag.red_frontier, b->tag.red);
  }
  return true;
}

bool GlobalFlushProtocol::restore(codec::Reader& in) {
  const std::size_t n = host_.process_count();
  if (in.u32() != static_cast<std::uint32_t>(red_color_)) return false;
  sent_ = in.matrix_clock(n);
  red_frontier_ = in.matrix_clock(n);
  delivered_seqs_.resize(in.u32());
  for (auto& seqs : delivered_seqs_) {
    seqs.resize(in.u32());
    for (std::size_t s = 0; s < seqs.size(); ++s) seqs[s] = in.u8() != 0;
  }
  buffer_.resize(in.u32());
  for (Buffered& b : buffer_) {
    b.msg = in.u32();
    b.src = in.u32();
    b.tag = Tag::read(in, n);
  }
  return true;
}

ProtocolFactory GlobalFlushProtocol::factory(int red_color) {
  return [red_color](Host& host) {
    return std::make_unique<GlobalFlushProtocol>(host, red_color);
  };
}

}  // namespace msgorder
