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
#include <string_view>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class CausalRstProtocol final : public Protocol {
 public:
  explicit CausalRstProtocol(Host& host)
      : host_(host),
        report_holds_(host.wants_hold_reasons()),
        sent_(host.process_count()),
        delivered_(host.process_count(), 0) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "causal-rst"; }
  bool snapshot(std::string& out) const override;
  bool quiescent() const override { return buffer_.empty(); }

  static ProtocolFactory factory();

  /// The tag piggybacked on each user packet.
  struct Tag {
    MatrixClock sent;  // sender's knowledge BEFORE this message

    /// The one encoding of a tag, on the wire and in snapshot(): the
    /// matrix's n x n u32 entries (4n^2 bytes).
    static void encode(std::string& out, const MatrixClock& sent) {
      codec::put_matrix_clock(out, sent);
    }
    static Tag decode(std::string_view payload, std::size_t n) {
      return Tag{codec::Reader(payload).matrix_clock(n)};
    }
    bool operator==(const Tag&) const = default;
  };

 private:
  bool deliverable(const Tag& tag) const;
  /// The first channel whose causally-prior deliveries are incomplete
  /// (only meaningful when !deliverable(tag)).
  ProcessId blocking_channel(const Tag& tag) const;
  void drain();

  struct Buffered {
    MessageId msg;
    ProcessId src;
    Tag tag;
  };

  Host& host_;
  const bool report_holds_;
  MatrixClock sent_;
  /// delivered_[k]: messages from P_k delivered here.
  std::vector<std::uint32_t> delivered_;
  std::vector<Buffered> buffer_;
};

}  // namespace msgorder
