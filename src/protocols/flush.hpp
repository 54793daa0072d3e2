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
#include <string_view>
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

class FlushChannelProtocol final : public Protocol {
 public:
  explicit FlushChannelProtocol(Host& host)
      : host_(host), report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "flush-channel"; }
  bool snapshot(std::string& out) const override;
  bool quiescent() const override;

  static ProtocolFactory factory();

  struct Tag {
    std::uint32_t seq = 0;
    /// Sequence of the latest earlier backward/two-way barrier on this
    /// channel, or kNoBarrier.
    std::uint32_t barrier = kNoBarrier;
    int kind = kOrdinary;

    static constexpr std::uint32_t kNoBarrier = 0xffffffffu;

    /// The one encoding of a tag, on the wire and in snapshot(): seq,
    /// barrier, kind as u32s (12 bytes).
    void encode(std::string& out) const {
      codec::put_u32(out, seq);
      codec::put_u32(out, barrier);
      codec::put_u32(out, static_cast<std::uint32_t>(kind));
    }
    static Tag decode(std::string_view payload) {
      codec::Reader in(payload);
      const std::uint32_t seq = in.u32();
      const std::uint32_t barrier = in.u32();
      return Tag{seq, barrier, static_cast<int>(in.u32())};
    }
    bool operator==(const Tag&) const = default;
  };

 private:
  struct ChannelIn {
    /// delivered[seq] for the prefix we have seen.
    std::vector<bool> delivered;
    std::vector<std::pair<MessageId, Tag>> buffer;

    bool all_delivered_below(std::uint32_t seq) const;
    bool is_delivered(std::uint32_t seq) const;
  };

  bool deliverable(const ChannelIn& in, const Tag& tag) const;
  void drain(ProcessId src, ChannelIn& in);

  Host& host_;
  const bool report_holds_;
  struct ChannelOut {
    std::uint32_t next_seq = 0;
    std::uint32_t last_barrier = Tag::kNoBarrier;
  };
  std::map<ProcessId, ChannelOut> out_;
  std::map<ProcessId, ChannelIn> in_;
};

}  // namespace msgorder
