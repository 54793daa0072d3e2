// Reliability layer: a decorator that makes any protocol stack survive a
// lossy network (NetworkOptions::loss_probability > 0) by sequencing,
// acknowledging, de-duplicating, and retransmitting every packet the
// inner protocol sends.
//
// The paper's model assumes reliable channels ("all messages sent are
// eventually delivered in a reliable system"); this layer is the
// substrate that discharges that assumption over a faulty network, so
// the ordering protocols above it remain oblivious to loss.  It adds a
// per-packet 8-byte envelope, one 8-byte ACK per received packet, and
// timer-driven retransmissions; it does NOT reorder traffic (the inner
// protocol still sees arrival order), so it adds no ordering guarantee
// of its own — composition with the ordering stacks is orthogonal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

struct ReliableOptions {
  /// Retransmission timeout; should exceed one round trip.
  SimTime retransmit_timeout = 6.0;
  /// Give up after this many retransmissions (0 = never; liveness over a
  /// loss_probability < 1 network then holds with probability 1).
  std::size_t max_retransmissions = 0;
};

class ReliableProtocol final : public FieldProtocol<ReliableProtocol> {
 public:
  ReliableProtocol(Host& host, const ProtocolFactory& inner_factory,
                   ReliableOptions options);
  ~ReliableProtocol() override;

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  void on_timer(std::uint64_t cookie) override;
  std::string name() const override;
  bool quiescent() const override;

  /// Wrap a factory: reliable(fifo), reliable(causal-rst), ...
  static ProtocolFactory wrap(ProtocolFactory inner,
                              ReliableOptions options = {});

  /// The payload of every shipped packet: the shipment's sequence
  /// number as a u64, then the inner payload unchanged.  A RACK's
  /// payload is the acked sequence number alone.
  struct Envelope {
    std::uint64_t seq = 0;
    std::string inner;

    template <class S, class IO>
    static void fields(S& envelope, IO& io) {
      io(envelope.seq);
      io.trailing(envelope.inner);
    }
    bool operator==(const Envelope&) const = default;
  };

  /// next_seq_ is determined by the number of ships so far, which the
  /// pending_/seen_ contents do not fully pin down once entries are
  /// reaped; it is encoded so runs that diverge in ship count differ.
  /// The inner protocol's snapshot is a nested block.
  template <class S, class IO>
  static void fields(S& self, IO& io) {
    io(self.next_seq_, self.pending_, self.seen_);
    io.nested(*self.inner_);
  }

 private:
  class InnerHost;

  struct PendingPacket {
    Packet packet;  // the enveloped packet, ready to re-send
    std::size_t retransmissions = 0;

    /// The whole packet a retransmission re-sends, not just its
    /// address: wraps that differ only in what they would re-send
    /// differ.  (Its src is not state: the host stamps every
    /// emission's source.)
    template <class S, class IO>
    static void fields(S& entry, IO& io) {
      auto& pkt = entry.packet;
      io(pkt.dst, pkt.is_control, pkt.kind, pkt.user_msg, pkt.payload);
      io.u64(entry.retransmissions);
    }
  };

  void ship(Packet inner_packet);
  void retransmit(std::uint64_t seq);

  Host& host_;
  ReliableOptions options_;
  std::unique_ptr<InnerHost> inner_host_;
  std::unique_ptr<Protocol> inner_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, PendingPacket> pending_;
  /// Per-source set of sequence numbers already handed up (dedup).
  std::map<ProcessId, std::set<std::uint64_t>> seen_;
};

}  // namespace msgorder
