#include "src/protocols/causal_ses.hpp"

#include <memory>

namespace msgorder {

void CausalSesProtocol::on_invoke(const Message& m) {
  // Stamp: this send is a new event of self.
  time_.tick(host_.self());
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  // The tag: this send's vector time, and last-sent knowledge EXCLUDING
  // this message, encoded straight from our state.
  const struct {
    const VectorClock& timestamp;
    const std::map<ProcessId, VectorClock>& last_sent;
  } tag{time_, last_sent_};
  codec::FieldWriter io(pkt.payload);
  Tag::fields(tag, io);
  // Now remember this message as the latest sent to m.dst.
  auto [it, inserted] = last_sent_.try_emplace(m.dst, time_);
  if (!inserted) it->second.merge(time_);
  host_.send_packet(std::move(pkt));
}

bool CausalSesProtocol::deliverable(const Tag& tag) const {
  const auto it = tag.last_sent.find(host_.self());
  if (it == tag.last_sent.end()) return true;
  // Everything the sender knew was previously sent to us must already be
  // reflected in our merged time.
  return it->second.leq(time_);
}

ProcessId CausalSesProtocol::blocking_component(const Tag& tag) const {
  const auto it = tag.last_sent.find(host_.self());
  if (it != tag.last_sent.end()) {
    for (std::size_t k = 0; k < it->second.size(); ++k) {
      if (it->second[k] > time_[k]) return static_cast<ProcessId>(k);
    }
  }
  return host_.self();  // unreachable for a genuinely undeliverable tag
}

void CausalSesProtocol::absorb(const Tag& tag) {
  time_.merge(tag.timestamp);
  for (const auto& [dst, v] : tag.last_sent) {
    if (dst == host_.self()) continue;  // our own inbox history is local
    auto [it, inserted] = last_sent_.try_emplace(dst, v);
    if (!inserted) it->second.merge(v);
  }
}

void CausalSesProtocol::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (deliverable(it->tag)) {
        host_.deliver(it->msg);
        absorb(it->tag);
        buffer_.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    for (const Buffered& b : buffer_) {
      host_.hold(b.msg, HoldReason::predecessor(std::nullopt,
                                                blocking_component(b.tag)));
    }
  }
}

void CausalSesProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  buffer_.push_back(
      {packet.user_msg,
       codec::decode<Tag>(packet.payload, host_.process_count())});
  drain();
}

ProtocolFactory CausalSesProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<CausalSesProtocol>(host);
  };
}

}  // namespace msgorder
