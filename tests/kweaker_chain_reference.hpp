// The chain-map form of k-weaker causal ordering, kept as the test
// oracle for src/protocols/kweaker.*: each message y is tagged with
// chainlen(x, y) for *every* send x in its causal past (the longest
// chain of causally ordered sends from x to y; a message is chained to
// itself with length 1), and a receiver blocks y only on undelivered
// local messages x with chainlen(x, y) >= k+2.  Its map only grows, so
// its tags grow with the run; the protocol under test folds the deep
// entries into per-channel counts and must act on every run exactly as
// this one does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class KWeakerChainReference final : public Protocol {
 public:
  KWeakerChainReference(Host& host, std::size_t k)
      : host_(host), report_holds_(host.wants_hold_reasons()), k_(k) {}

  static ProtocolFactory factory(std::size_t k) {
    return [k](Host& host) {
      return std::make_unique<KWeakerChainReference>(host, k);
    };
  }

  std::string name() const override {
    return "kweaker-chain-reference(k=" + std::to_string(k_) + ")";
  }
  bool quiescent() const override { return buffer_.empty(); }

  struct ChainEntry {
    ProcessId dst = 0;        // destination of the past message
    std::uint32_t depth = 0;  // longest send chain ending at the tagged send

    template <class S, class IO>
    static void fields(S& entry, IO& io) { io(entry.dst, entry.depth); }
  };

  /// chainlen(x, y) for every x in the causal past of the tagged y,
  /// sorted by x: message, destination, depth (12 bytes each).
  struct Tag {
    std::vector<std::pair<MessageId, ChainEntry>> chains;

    template <class S, class IO>
    static void fields(S& tag, IO& io) { io.trailing(tag.chains); }
  };

  void on_invoke(const Message& m) override {
    // chainlen(x, m) = d(x) + 1 for every known x; the tag is known_
    // after that extension.
    Packet pkt;
    pkt.dst = m.dst;
    pkt.user_msg = m.id;
    codec::FieldWriter io(pkt.payload);
    for (auto& chain : known_) {
      chain.second.depth += 1;
      io(chain);
    }
    known_[m.id] = ChainEntry{m.dst, 1};
    host_.send_packet(std::move(pkt));
  }

  void on_packet(const Packet& packet) override {
    if (packet.is_control) return;
    Tag tag = codec::decode<Tag>(packet.payload, host_.process_count());
    // The receive event puts the sender's knowledge in our causal past.
    for (const auto& [msg, entry] : tag.chains) {
      auto [it, inserted] = known_.try_emplace(msg, entry);
      if (!inserted) it->second.depth = std::max(it->second.depth, entry.depth);
    }
    const Message& m = host_.message(packet.user_msg);
    auto [it, inserted] =
        known_.try_emplace(packet.user_msg, ChainEntry{m.dst, 1});
    if (!inserted) it->second.depth = std::max<std::uint32_t>(it->second.depth, 1);
    buffer_.push_back({packet.user_msg, std::move(tag)});
    drain();
  }

 private:
  /// The first undelivered local message the tag's chains wait on.
  std::optional<MessageId> blocking_message(const Tag& tag) const {
    for (const auto& [msg, entry] : tag.chains) {
      if (entry.dst == host_.self() && entry.depth >= k_ + 2 &&
          delivered_here_.count(msg) == 0) {
        return msg;
      }
    }
    return std::nullopt;
  }

  void drain() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
        if (!blocking_message(it->second).has_value()) {
          host_.deliver(it->first);
          delivered_here_.insert(it->first);
          buffer_.erase(it);
          progressed = true;
          break;
        }
      }
    }
    if (report_holds_) {
      for (const auto& [msg, tag] : buffer_) {
        host_.hold(msg, HoldReason::predecessor(blocking_message(tag),
                                                std::nullopt));
      }
    }
  }

  Host& host_;
  const bool report_holds_;
  const std::size_t k_;
  /// d(x) = longest send chain from x's send to any send in our causal
  /// past (including x itself: at least 1 once known).
  std::map<MessageId, ChainEntry> known_;
  std::set<MessageId> delivered_here_;
  std::vector<std::pair<MessageId, Tag>> buffer_;
};

}  // namespace msgorder
