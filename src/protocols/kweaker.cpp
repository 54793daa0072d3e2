#include "src/protocols/kweaker.hpp"

#include <algorithm>
#include <memory>

namespace msgorder {

void KWeakerCausalProtocol::on_invoke(const Message& m) {
  // chainlen(x, m) = d(x) + 1 for every known x: the longest chain to a
  // send in our causal past extends by this new send.  A young entry
  // that reaches k+2 joins its channel's old prefix.
  auto kept = young_.begin();
  for (Young& y : young_) {
    if (++y.depth >= k_ + 2) {
      std::uint32_t& count = old_.at(y.src, y.dst);
      count = std::max(count, y.seq + 1);
    } else {
      *kept++ = y;
    }
  }
  young_.erase(kept, young_.end());

  const std::uint32_t seq = sent_[m.dst]++;
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  const struct {
    const std::uint32_t& seq;
    const MatrixClock& old;
    const std::vector<Young>& young;
  } tag{seq, old_, young_};
  codec::FieldWriter io(pkt.payload);
  Tag::fields(tag, io);

  // The new send joins our causal past with a self chain of length 1.
  const Young self{host_.self(), m.dst, seq, 1};
  young_.insert(
      std::upper_bound(young_.begin(), young_.end(), self, Young::before),
      self);
  host_.send_packet(std::move(pkt));
}

void KWeakerCausalProtocol::merge_young(const std::vector<Young>& theirs) {
  // Both lists are in channel order: one merge pass keeps the deeper of
  // two depths for a send both know and drops every send the merged
  // matrix now counts as old.
  std::vector<Young> merged;
  merged.reserve(young_.size() + theirs.size());
  auto a = young_.begin();
  auto b = theirs.begin();
  while (a != young_.end() || b != theirs.end()) {
    Young next;
    if (b == theirs.end() || (a != young_.end() && Young::before(*a, *b))) {
      next = *a++;
    } else if (a == young_.end() || Young::before(*b, *a)) {
      next = *b++;
    } else {
      next = *a++;
      next.depth = std::max(next.depth, b++->depth);
    }
    if (next.seq >= old_.at(next.src, next.dst)) merged.push_back(next);
  }
  young_ = std::move(merged);
}

std::optional<ProcessId> KWeakerCausalProtocol::lagging_source(
    const Buffered& b) const {
  for (std::size_t p = 0; p < b.need.size(); ++p) {
    if (in_order_[p] < b.need[p]) return static_cast<ProcessId>(p);
  }
  return std::nullopt;
}

void KWeakerCausalProtocol::mark_delivered(ProcessId src,
                                           std::uint32_t seq) {
  if (seq != in_order_[src]) {
    out_of_order_.emplace(src, seq);
    return;
  }
  ++in_order_[src];
  while (out_of_order_.erase({src, in_order_[src]}) > 0) ++in_order_[src];
}

void KWeakerCausalProtocol::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (!lagging_source(*it).has_value()) {
        host_.deliver(it->msg);
        mark_delivered(host_.message(it->msg).src, it->seq);
        buffer_.erase(it);
        progressed = true;
        break;
      }
    }
  }
  if (report_holds_) {
    for (const Buffered& b : buffer_) {
      host_.hold(b.msg, HoldReason::predecessor(std::nullopt,
                                                lagging_source(b)));
    }
  }
}

void KWeakerCausalProtocol::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  const std::size_t n = host_.process_count();
  const Tag tag = codec::decode<Tag>(packet.payload, n);
  // The receive event puts the sender's knowledge in our causal past.
  old_.merge(tag.old);
  merge_young(tag.young);
  // The received message's own send is also now known (depth 1 chain),
  // unless it is already known or already old.
  const ProcessId self = host_.self();
  const Young own{host_.message(packet.user_msg).src, self, tag.seq, 1};
  if (own.seq >= old_.at(own.src, self)) {
    const auto at =
        std::lower_bound(young_.begin(), young_.end(), own, Young::before);
    if (at == young_.end() || Young::before(own, *at)) young_.insert(at, own);
  }

  Buffered b{packet.user_msg, tag.seq, VectorClock(n)};
  for (std::size_t p = 0; p < n; ++p) b.need[p] = tag.old.at(p, self);
  buffer_.push_back(std::move(b));
  drain();
}

ProtocolFactory KWeakerCausalProtocol::factory(std::size_t k) {
  return [k](Host& host) {
    return std::make_unique<KWeakerCausalProtocol>(host, k);
  };
}

}  // namespace msgorder
