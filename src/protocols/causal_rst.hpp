// The Raynal-Schiper-Toueg causal-ordering protocol [20] (Section 2 of
// the paper): every message is tagged with an n x n matrix m where
// m[j][k] is the sender's knowledge of how many messages P_j has sent to
// P_k.  The receiver delays delivery until all messages addressed to it
// that the tag proves were sent causally earlier have been delivered.
// Tag cost O(n^2), zero control messages — the canonical witness that
// causal ordering sits in the *tagged* protocol class.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class CausalRstProtocol final : public FieldProtocol<CausalRstProtocol> {
 public:
  explicit CausalRstProtocol(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()),
        state_(host.process_count()) {}

  void on_invoke(const Message& m) override {
    host_.send_packet(state_.send(m, host_.self()));
  }
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "causal-rst"; }
  bool quiescent() const override { return state_.buffer.empty(); }

  static ProtocolFactory factory();

  /// The tag piggybacked on each user packet: the matrix's n x n u32
  /// entries (4n^2 bytes).
  struct Tag {
    MatrixClock sent;  // sender's knowledge BEFORE this message

    template <class S, class IO>
    static void fields(S& tag, IO& io) { io(tag.sent); }
    bool operator==(const Tag&) const = default;
  };

  /// The whole state, shared with the causal-no-merge mutant
  /// (src/verify/mutants.cpp).
  struct State {
    struct Buffered {
      MessageId msg;
      ProcessId src;
      Tag tag;

      template <class S, class IO>
      static void fields(S& b, IO& io) { io(b.msg, b.src, b.tag); }
    };

    explicit State(std::size_t n) : sent(n), delivered(n) {}

    /// sent[j][k]: messages P_j sent to P_k, as far as we know.  It is
    /// the tag of our next send, which Tag's field list encodes in place.
    MatrixClock sent;
    /// delivered[k]: messages from P_k delivered here.
    VectorClock delivered;
    std::vector<Buffered> buffer;

    /// The user packet for m sent by `self`, tagged; records the send.
    Packet send(const Message& m, ProcessId self);
    /// Has `self` delivered every message to it the tag proves sent?
    bool deliverable(const Tag& tag, ProcessId self) const;

    template <class S, class IO>
    static void fields(S& s, IO& io) {
      io(s.sent, s.delivered);
      io.sorted(s.buffer, &Buffered::msg);
    }
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.state_); }

 private:
  /// The first channel whose causally-prior deliveries are incomplete
  /// (only meaningful when !deliverable(tag)).
  ProcessId blocking_channel(const Tag& tag) const;
  void drain();

  Host& host_;
  const bool report_holds_;
  State state_;
};

}  // namespace msgorder
