// Flush channels (F-channels [1], Section 2): a per-channel protocol in
// which each message is one of four types, encoded in Message::color:
//
//   color 0 : ordinary send       (no ordering constraint of its own)
//   color 1 : forward-flush send  (delivered after everything sent
//                                  earlier on the channel)
//   color 2 : backward-flush send (everything sent later on the channel
//                                  is delivered after it)
//   color 3 : two-way-flush send  (both)
//
// Implementation: a per-channel sequence number plus, on every message,
// the sequence number of the latest preceding backward/two-way barrier.
// The receiver delivers an ordinary message once its barrier is
// delivered, and a forward/two-way message once *all* earlier channel
// messages are delivered.  Tag O(1), no control messages — flush
// orderings are tagged-class, as the paper's predicate analysis shows.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

enum FlushKind : int {
  kOrdinary = 0,
  kForwardFlush = 1,
  kBackwardFlush = 2,
  kTwoWayFlush = 3,
};

class FlushChannelProtocol final
    : public FieldProtocol<FlushChannelProtocol> {
 public:
  explicit FlushChannelProtocol(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "flush-channel"; }
  bool quiescent() const override;

  static ProtocolFactory factory();

  /// The tag: seq, barrier, kind as u32s (12 bytes).
  struct Tag {
    std::uint32_t seq = 0;
    /// Sequence of the latest earlier backward/two-way barrier on this
    /// channel, or kNoBarrier.
    std::uint32_t barrier = kNoBarrier;
    int kind = kOrdinary;

    static constexpr std::uint32_t kNoBarrier = 0xffffffffu;

    template <class S, class IO>
    static void fields(S& tag, IO& io) {
      io(tag.seq, tag.barrier);
      io.u32(tag.kind);
    }
    bool operator==(const Tag&) const = default;
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.out_, self.in_); }

 private:
  struct ChannelIn {
    /// delivered[seq] for the prefix we have seen.
    std::vector<bool> delivered;
    std::vector<std::pair<MessageId, Tag>> buffer;

    bool all_delivered_below(std::uint32_t seq) const;
    bool is_delivered(std::uint32_t seq) const;

    template <class S, class IO>
    static void fields(S& in, IO& io) {
      io(in.delivered);
      io.sorted(in.buffer, [](const std::pair<MessageId, Tag>& entry) {
        return entry.second.seq;
      });
    }
  };

  bool deliverable(const ChannelIn& in, const Tag& tag) const;
  void drain(ProcessId src, ChannelIn& in);

  Host& host_;
  const bool report_holds_;
  struct ChannelOut {
    std::uint32_t next_seq = 0;
    std::uint32_t last_barrier = Tag::kNoBarrier;

    template <class S, class IO>
    static void fields(S& out, IO& io) { io(out.next_seq, out.last_barrier); }
  };
  std::map<ProcessId, ChannelOut> out_;
  std::map<ProcessId, ChannelIn> in_;
};

}  // namespace msgorder
