// k-weaker causal ordering (Section 5): a delivery may overtake an
// earlier-sent message unless they are linked by a causal *send chain* of
// k+2 or more messages, i.e. the forbidden predicate is
//   (s1 |> s2) & ... & (s_{k+1} |> s_{k+2}) & (r_{k+2} |> r_1).
//
// The predicate graph has an order-1 cycle, so tagging suffices.  Write
// chainlen(x, y) for the length of the longest chain of causally ordered
// sends from x to y (a message is chained to itself with length 1); the
// receiver j of y must block y exactly on the undelivered x to j with
// chainlen(x, y) >= k+2.
//
// Only a per-channel count is needed for those deep ("old") sends.  An
// earlier send x' by the same process chains through x, so
// chainlen(x', y) >= chainlen(x, y) + 1: on every channel p -> j, the
// sends in y's causal past form a prefix in send order, and the old ones
// form a prefix of that.  So the state holds
//   * old[p][j]: how many p -> j sends are at depth >= k+2 from our
//     frontier (a prefix length, which only grows);
//   * young: the few sends still at depth <= k+1, by channel position,
//     with their depth;
// and "every old x to j is delivered" is in_order[p] >= old[p][j] for
// every source p, where in_order[p] is the length of the prefix of p's
// channel already delivered here.  A send deepens every young entry by
// one and folds those that reach k+2 into the matrix; a receive merges
// the matrix by elementwise max, keeps the deeper of two young depths,
// and drops the young entries the merged matrix covers.  This is exact:
// every run is, event for event, the run of the tag-every-past-send
// form (tests/kweaker_chain_reference.hpp), with tags of
// 4 + 4n² + 16·|young| bytes: |young| grows with k, not with the run.
//
// Knowledge merges on receive (the receive event puts the sender's
// history in the causal past), so the blocking relation propagates
// transitively and the cross-process instances of the predicate are
// covered as well — the property tests check this against the oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/poset/clocks.hpp"
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
        k_(k),
        old_(host.process_count()),
        sent_(host.process_count()),
        in_order_(host.process_count()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override {
    return "kweaker-causal(k=" + std::to_string(k_) + ")";
  }
  bool quiescent() const override { return buffer_.empty(); }

  static ProtocolFactory factory(std::size_t k);

  /// A send still at depth <= k+1 from the holder's frontier: the seq-th
  /// send on channel src -> dst, chained to the frontier with length
  /// depth.
  struct Young {
    ProcessId src = 0;
    ProcessId dst = 0;
    std::uint32_t seq = 0;
    std::uint32_t depth = 0;

    template <class S, class IO>
    static void fields(S& y, IO& io) { io(y.src, y.dst, y.seq, y.depth); }
    bool operator==(const Young&) const = default;
    /// Channel order: the order young lists are kept and written in.
    static bool before(const Young& a, const Young& b) {
      return std::tie(a.src, a.dst, a.seq) < std::tie(b.src, b.dst, b.seq);
    }
  };

  /// The tag: the message's position on its channel, the sender's old
  /// matrix, then its young entries with no count (the payload's length
  /// fixes it) — 4 + 4n² + 16·|young| bytes.
  struct Tag {
    std::uint32_t seq = 0;
    MatrixClock old;
    /// Sorted in channel order.
    std::vector<Young> young;

    template <class S, class IO>
    static void fields(S& tag, IO& io) {
      io(tag.seq, tag.old);
      io.trailing(tag.young);
    }
    bool operator==(const Tag&) const = default;
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) {
    io(self.old_, self.young_, self.sent_, self.in_order_,
       self.out_of_order_);
    io.sorted(self.buffer_, &Buffered::msg);
  }

 private:
  /// A received message, its position on its channel, and what it waits
  /// on: its sender's old prefix of every channel into this process.
  struct Buffered {
    MessageId msg = 0;
    std::uint32_t seq = 0;
    /// need[p] = the tag's old[p][self].
    VectorClock need;

    template <class S, class IO>
    static void fields(S& b, IO& io) { io(b.msg, b.seq, b.need); }
  };

  /// The first source whose delivered prefix is shorter than `b` needs,
  /// or none when `b` is deliverable.
  std::optional<ProcessId> lagging_source(const Buffered& b) const;
  void merge_young(const std::vector<Young>& theirs);
  void mark_delivered(ProcessId src, std::uint32_t seq);
  void drain();

  Host& host_;
  const bool report_holds_;
  /// Configuration, not state: every instance of a stack shares it.
  const std::size_t k_;
  MatrixClock old_;
  /// Sorted in channel order; every depth <= k+1, every seq at or past
  /// its channel's old_ count.
  std::vector<Young> young_;
  /// sent_[j] = this process's sends to j so far (the next one's seq).
  VectorClock sent_;
  /// in_order_[p] = length of the delivered prefix of channel p -> self.
  VectorClock in_order_;
  /// Delivered (source, seq) past their channel's in_order_ prefix.
  std::set<std::pair<ProcessId, std::uint32_t>> out_of_order_;
  std::vector<Buffered> buffer_;
};

}  // namespace msgorder
