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
#include <utility>
#include <vector>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class KWeakerCausalProtocol final
    : public FieldProtocol<KWeakerCausalProtocol> {
 public:
  KWeakerCausalProtocol(Host& host, std::size_t k)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()),
        k_(k) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override {
    return "kweaker-causal(k=" + std::to_string(k_) + ")";
  }
  bool quiescent() const override { return buffer_.empty(); }

  static ProtocolFactory factory(std::size_t k);

  struct ChainEntry {
    ProcessId dst = 0;         // destination of the past message
    std::uint32_t depth = 0;   // longest send chain ending at the tagged send

    template <class S, class IO>
    static void fields(S& entry, IO& io) { io(entry.dst, entry.depth); }
    bool operator==(const ChainEntry&) const = default;
  };

  /// The tag: its chain entries with no count, each message,
  /// destination, depth (12 bytes); the payload's length fixes the
  /// count.
  struct Tag {
    /// chainlen(x, y) for every x in the causal past of the tagged y,
    /// sorted by x.
    std::vector<std::pair<MessageId, ChainEntry>> chains;

    template <class S, class IO>
    static void fields(S& tag, IO& io) { io.trailing(tag.chains); }
    bool operator==(const Tag&) const = default;
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) {
    io(self.known_, self.delivered_here_);
    io.sorted(self.buffer_, &Buffered::msg);
  }

 private:
  bool deliverable(const Tag& tag) const;
  /// The undelivered local message the chain condition is waiting on
  /// (only meaningful when !deliverable(tag)).
  std::optional<MessageId> blocking_message(const Tag& tag) const;
  void drain();

  struct Buffered {
    MessageId msg;
    Tag tag;

    template <class S, class IO>
    static void fields(S& b, IO& io) {
      io(b.msg);
      io.nested(b.tag);
    }
  };

  Host& host_;
  const bool report_holds_;
  /// Configuration, not state: every instance of a stack shares it.
  const std::size_t k_;
  /// d(x) = longest send chain from x's send to any send in our causal
  /// past (including x itself: at least 1 once known).
  std::map<MessageId, ChainEntry> known_;
  std::set<MessageId> delivered_here_;
  std::vector<Buffered> buffer_;
};

}  // namespace msgorder
