#include "src/protocols/kweaker.hpp"

#include <algorithm>
#include <memory>

namespace msgorder {

void KWeakerCausalProtocol::on_invoke(const Message& m) {
  // chainlen(x, m) = d(x) + 1 for every known x: the longest chain to a
  // send in our causal past extends by this new send, and so does every
  // chain that ends in our causal past.  The tag is known_ after that
  // extension, encoded straight from it.
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  pkt.payload.reserve(12 * known_.size());
  for (auto& [msg, entry] : known_) {
    entry.depth += 1;
    Tag::put_chain(pkt.payload, msg, entry);
  }
  // The new send joins our causal past with a self chain of length 1.
  known_[m.id] = ChainEntry{m.dst, 1};
  host_.send_packet(std::move(pkt));
}

bool KWeakerCausalProtocol::deliverable(const Tag& tag) const {
  for (const auto& [msg, entry] : tag.chains) {
    if (entry.dst == host_.self() && entry.depth >= k_ + 2 &&
        delivered_here_.count(msg) == 0) {
      return false;
    }
  }
  return true;
}

std::optional<MessageId> KWeakerCausalProtocol::blocking_message(
    const Tag& tag) const {
  for (const auto& [msg, entry] : tag.chains) {
    if (entry.dst == host_.self() && entry.depth >= k_ + 2 &&
        delivered_here_.count(msg) == 0) {
      return msg;
    }
  }
  return std::nullopt;
}

void KWeakerCausalProtocol::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (deliverable(it->tag)) {
        host_.deliver(it->msg);
        delivered_here_.insert(it->msg);
        buffer_.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    for (const Buffered& b : buffer_) {
      host_.hold(b.msg, HoldReason::predecessor(blocking_message(b.tag),
                                                std::nullopt));
    }
  }
}

void KWeakerCausalProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  Tag tag = Tag::decode(packet.payload);
  // The receive event puts the sender's knowledge in our causal past.
  for (const auto& [msg, entry] : tag.chains) {
    auto [it, inserted] = known_.try_emplace(msg, entry);
    if (!inserted) it->second.depth = std::max(it->second.depth, entry.depth);
  }
  // The received message's own send is also now known (depth 1 chain).
  const Message& m = host_.message(packet.user_msg);
  auto [it, inserted] =
      known_.try_emplace(packet.user_msg, ChainEntry{m.dst, 1});
  if (!inserted) it->second.depth = std::max<std::uint32_t>(
      it->second.depth, 1);
  buffer_.push_back({packet.user_msg, std::move(tag)});
  drain();
}

bool KWeakerCausalProtocol::snapshot(std::string& out) const {
  codec::put_u64(out, k_);
  codec::put_u32(out, static_cast<std::uint32_t>(known_.size()));
  for (const auto& [msg, entry] : known_) Tag::put_chain(out, msg, entry);
  codec::put_u32(out, static_cast<std::uint32_t>(delivered_here_.size()));
  for (const MessageId msg : delivered_here_) codec::put_u32(out, msg);
  const auto sorted =
      codec::sorted_by(buffer_, [](const Buffered& b) { return b.msg; });
  codec::put_u32(out, static_cast<std::uint32_t>(sorted.size()));
  for (const Buffered* b : sorted) {
    codec::put_u32(out, b->msg);
    codec::put_u32(out, static_cast<std::uint32_t>(b->tag.chains.size()));
    b->tag.encode(out);
  }
  return true;
}

bool KWeakerCausalProtocol::restore(codec::Reader& in) {
  if (in.u64() != k_) return false;
  known_.clear();
  for (std::uint32_t i = in.u32(); i > 0; --i) {
    known_.insert(known_.end(), Tag::read_chain(in));
  }
  delivered_here_.clear();
  for (std::uint32_t i = in.u32(); i > 0; --i) {
    delivered_here_.insert(delivered_here_.end(), in.u32());
  }
  buffer_.resize(in.u32());
  for (Buffered& b : buffer_) {
    b.msg = in.u32();
    b.tag.chains.resize(in.u32());
    for (auto& chain : b.tag.chains) chain = Tag::read_chain(in);
  }
  return true;
}

ProtocolFactory KWeakerCausalProtocol::factory(std::size_t k) {
  return [k](Host& host) {
    return std::make_unique<KWeakerCausalProtocol>(host, k);
  };
}

}  // namespace msgorder
