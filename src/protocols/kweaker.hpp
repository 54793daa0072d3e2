// k-weaker causal ordering (Section 5): a delivery may overtake an
// earlier-sent message unless they are linked by a causal *send chain* of
// k+2 or more messages, i.e. the forbidden predicate is
//   (s1 |> s2) & ... & (s_{k+1} |> s_{k+2}) & (r_{k+2} |> r_1).
//
// The predicate graph has an order-1 cycle, so tagging suffices; this
// implementation tags each message y with its *send-chain depth map*:
// for every message x in y's causal past, the length of the longest
// chain of causally ordered sends from x to y (chainlen(x, y); a message
// is chained to itself with length 1).  The receiver blocks y only on
// undelivered local messages x with chainlen(x, y) >= k+2.
//
// Knowledge merges on receive (the receive event puts the sender's
// history in the causal past), so the blocking relation propagates
// transitively and the cross-process instances of the predicate are
// covered as well — the property tests check this against the oracle.
//
// The tag grows with the causal past (entries are pruned once their
// depth can no longer matter for *new* chains is impossible to detect
// locally, so entries persist); the measured tag size is part of the
// k-vs-overhead tradeoff that bench E5 reports.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class KWeakerCausalProtocol final : public Protocol {
 public:
  KWeakerCausalProtocol(Host& host, std::size_t k)
      : host_(host), report_holds_(host.wants_hold_reasons()), k_(k) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override {
    return "kweaker-causal(k=" + std::to_string(k_) + ")";
  }
  bool snapshot(std::string& out) const override;
  bool restore(codec::Reader& in) override;
  bool quiescent() const override { return buffer_.empty(); }

  static ProtocolFactory factory(std::size_t k);

  struct ChainEntry {
    ProcessId dst = 0;         // destination of the past message
    std::uint32_t depth = 0;   // longest send chain ending at the tagged send

    bool operator==(const ChainEntry&) const = default;
  };

  struct Tag {
    /// chainlen(x, y) for every x in the causal past of the tagged y,
    /// sorted by x.
    std::vector<std::pair<MessageId, ChainEntry>> chains;

    /// The one encoding of a chain entry, on the wire and in
    /// snapshot(): message, destination, depth (12 bytes).  A tag is
    /// its entries with no count; the payload's length fixes it.
    static void put_chain(std::string& out, MessageId msg,
                          const ChainEntry& entry) {
      codec::put_u32(out, msg);
      codec::put_u32(out, entry.dst);
      codec::put_u32(out, entry.depth);
    }
    void encode(std::string& out) const {
      for (const auto& [msg, entry] : chains) put_chain(out, msg, entry);
    }
    static std::pair<MessageId, ChainEntry> read_chain(codec::Reader& in) {
      const MessageId msg = in.u32();
      const ProcessId dst = in.u32();
      return {msg, ChainEntry{dst, in.u32()}};
    }
    static Tag decode(std::string_view payload) {
      codec::Reader in(payload);
      Tag tag;
      tag.chains.reserve(payload.size() / 12);
      while (!in.done()) tag.chains.push_back(read_chain(in));
      return tag;
    }
    bool operator==(const Tag&) const = default;
  };

 private:
  bool deliverable(const Tag& tag) const;
  /// The undelivered local message the chain condition is waiting on
  /// (only meaningful when !deliverable(tag)).
  std::optional<MessageId> blocking_message(const Tag& tag) const;
  void drain();

  struct Buffered {
    MessageId msg;
    Tag tag;
  };

  Host& host_;
  const bool report_holds_;
  std::size_t k_;
  /// d(x) = longest send chain from x's send to any send in our causal
  /// past (including x itself: at least 1 once known).
  std::map<MessageId, ChainEntry> known_;
  std::set<MessageId> delivered_here_;
  std::vector<Buffered> buffer_;
};

}  // namespace msgorder
