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
  // The tag, encoded straight from our state.
  const struct {
    const MatrixClock& sent;
    const MatrixClock& red_frontier;
    bool red;
  } tag{sent_, red_frontier_, red};
  codec::FieldWriter io(pkt.payload);
  Tag::fields(tag, io);
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
  buffer_.push_back(
      {packet.user_msg, packet.src,
       codec::decode<Tag>(packet.payload, host_.process_count())});
  drain();
}

ProtocolFactory GlobalFlushProtocol::factory(int red_color) {
  return [red_color](Host& host) {
    return std::make_unique<GlobalFlushProtocol>(host, red_color);
  };
}

}  // namespace msgorder
