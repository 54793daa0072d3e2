// Tagged FIFO protocol: a per-channel sequence number is tagged on each
// message; the receiver delivers channel (i, j) traffic in sequence
// order.  FIFO's forbidden predicate has an order-1 cycle, so tagging is
// sufficient (Section 5) — and indeed the tag here is 4 bytes with no
// control messages.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class FifoProtocol final : public FieldProtocol<FifoProtocol> {
 public:
  explicit FifoProtocol(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override {
    host_.send_packet(state_.send(m));
  }
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "fifo"; }
  bool quiescent() const override { return state_.quiescent(); }

  static ProtocolFactory factory();

  /// The whole state, shared with the fifo mutants
  /// (src/verify/mutants.cpp).
  struct State {
    struct Pending {
      MessageId msg;
      std::uint32_t seq;

      template <class S, class IO>
      static void fields(S& p, IO& io) { io(p.msg, p.seq); }
    };
    /// One source's receiving end: the next expected sequence number
    /// and the out-of-order buffer.
    struct Inbox {
      std::uint32_t expected = 0;
      std::vector<Pending> buffer;

      /// Delivers everything now in sequence.
      void drain(Host& host);

      template <class S, class IO>
      static void fields(S& in, IO& io) {
        io(in.expected);
        io.sorted(in.buffer, &Pending::seq);
      }
    };

    /// Next sequence number per destination (this process is the
    /// source).
    std::map<ProcessId, std::uint32_t> next_out;
    std::map<ProcessId, Inbox> in;

    /// The user packet for m, tagged with its channel sequence number.
    Packet send(const Message& m);
    bool quiescent() const;

    template <class S, class IO>
    static void fields(S& s, IO& io) { io(s.next_out, s.in); }
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.state_); }

 private:
  Host& host_;
  const bool report_holds_;
  State state_;
};

}  // namespace msgorder
