// A specification-specialized tagged protocol for *global forward flush*
// (Section 5):   forbid (x.s |> y.s) & (y.r |> x.r) where color(y)=red.
//
// Running full causal ordering would be sufficient (Theorem 3), but
// overly strong: ordinary messages may overtake each other freely; only
// red messages must not overtake anything sent causally before them.
// This protocol keeps RST's knowledge (sends matrix, merged on delivery
// and carried on every message — the knowledge must travel on ordinary
// traffic too, or red tags would undercount) but relaxes the delivery
// condition:
//
//   * a red message waits for every message to this destination that was
//     sent causally before it (its full matrix column), and
//   * an ordinary message waits only for the *red frontier* — the merged
//     pre-send knowledge of all red messages in its causal past — which
//     prevents a red delivery from leaking ahead through an ordinary
//     relay chain (the cross-process instance of the predicate).
//
// Because ordinary messages may overtake each other on a channel, the
// RST count comparison (delivered >= matrix cell) is unsound here: a
// later message can inflate the count past a missing earlier one.  The
// receiver therefore tracks the *set* of per-channel sequence numbers
// delivered and requires the barrier's prefix to be complete.
//
// Compared to causal-rst: identical tag size, strictly less delivery
// buffering; the gap is measured in bench_flush_specialization.  This is
// the flavor of specialization the companion paper [19] automates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class GlobalFlushProtocol final : public FieldProtocol<GlobalFlushProtocol> {
 public:
  GlobalFlushProtocol(Host& host, int red_color)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()),
        red_color_(red_color),
        sent_(host.process_count()),
        red_frontier_(host.process_count()),
        delivered_seqs_(host.process_count()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "global-flush"; }
  bool quiescent() const override { return buffer_.empty(); }

  static ProtocolFactory factory(int red_color = 1);

  /// The tag: both matrices, then the red flag as one byte
  /// (8n^2 + 1 bytes).
  struct Tag {
    MatrixClock sent;          // full knowledge (for merging + red check)
    MatrixClock red_frontier;  // pre-send knowledge of past red messages
    bool red = false;

    template <class S, class IO>
    static void fields(S& tag, IO& io) {
      io(tag.sent, tag.red_frontier, tag.red);
    }
    bool operator==(const Tag&) const = default;
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) {
    io(self.sent_, self.red_frontier_, self.delivered_seqs_);
    io.sorted(self.buffer_, &Buffered::msg);
  }

 private:
  bool deliverable(const Tag& tag) const;
  /// All channel sequence numbers 0..n-1 from source k delivered here?
  bool prefix_complete(std::size_t k, std::uint32_t n) const;
  /// The first channel whose barrier prefix is incomplete (only
  /// meaningful when !deliverable(tag)).
  ProcessId blocking_channel(const Tag& tag) const;
  void drain();

  struct Buffered {
    MessageId msg;
    ProcessId src;
    Tag tag;

    template <class S, class IO>
    static void fields(S& b, IO& io) { io(b.msg, b.src, b.tag); }
  };

  Host& host_;
  const bool report_holds_;
  /// Configuration, not state: every instance of a stack shares it.
  const int red_color_;
  MatrixClock sent_;
  MatrixClock red_frontier_;
  /// delivered_seqs_[k][s]: message s on channel k -> self delivered.
  std::vector<std::vector<bool>> delivered_seqs_;
  std::vector<Buffered> buffer_;
};

}  // namespace msgorder
