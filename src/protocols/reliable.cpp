#include "src/protocols/reliable.hpp"

namespace msgorder {

/// The Host facade handed to the inner protocol: deliveries, clocks and
/// identity pass through; packets are intercepted and enveloped; timer
/// cookies are mapped to the even half so they cannot collide with the
/// layer's own (odd) retransmission cookies.
class ReliableProtocol::InnerHost final : public Host {
 public:
  InnerHost(ReliableProtocol* outer, Host& real)
      : outer_(outer), real_(real) {}

  void send_packet(Packet packet) override {
    outer_->ship(std::move(packet));
  }
  void deliver(MessageId msg) override { real_.deliver(msg); }
  void set_timer(SimTime delay, std::uint64_t cookie) override {
    real_.set_timer(delay, 2 * cookie);
  }
  SimTime now() const override { return real_.now(); }
  ProcessId self() const override { return real_.self(); }
  std::size_t process_count() const override {
    return real_.process_count();
  }
  const Message& message(MessageId msg) const override {
    return real_.message(msg);
  }
  void hold(MessageId msg, const HoldReason& reason) override {
    real_.hold(msg, reason);
  }
  bool wants_hold_reasons() const override {
    return real_.wants_hold_reasons();
  }

 private:
  ReliableProtocol* outer_;
  Host& real_;
};

ReliableProtocol::ReliableProtocol(Host& host,
                                   const ProtocolFactory& inner_factory,
                                   ReliableOptions options)
    : FieldProtocol(host.process_count()), host_(host), options_(options) {
  inner_host_ = std::make_unique<InnerHost>(this, host);
  inner_ = inner_factory(*inner_host_);
}

ReliableProtocol::~ReliableProtocol() = default;

std::string ReliableProtocol::name() const {
  return "reliable(" + inner_->name() + ")";
}

void ReliableProtocol::on_invoke(const Message& m) { inner_->on_invoke(m); }

void ReliableProtocol::ship(Packet inner_packet) {
  const std::uint64_t seq = next_seq_++;
  std::string payload;
  codec::save(Envelope{seq, std::move(inner_packet.payload)}, payload);
  inner_packet.payload = std::move(payload);
  pending_[seq] = PendingPacket{inner_packet, 0};
  host_.send_packet(std::move(inner_packet));
  host_.set_timer(options_.retransmit_timeout, 2 * seq + 1);
}

void ReliableProtocol::retransmit(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // acked and reaped
  PendingPacket& entry = it->second;
  if (options_.max_retransmissions != 0 &&
      entry.retransmissions >= options_.max_retransmissions) {
    pending_.erase(it);  // give up
    return;
  }
  ++entry.retransmissions;
  host_.send_packet(entry.packet);
  host_.set_timer(options_.retransmit_timeout, 2 * seq + 1);
}

void ReliableProtocol::on_timer(std::uint64_t cookie) {
  if (cookie % 2 == 1) {
    retransmit((cookie - 1) / 2);
  } else {
    inner_->on_timer(cookie / 2);
  }
}

void ReliableProtocol::on_packet(const Packet& packet) {
  if (packet.is_control && packet.kind == "RACK") {
    pending_.erase(codec::Reader(packet.payload).u64());
    return;
  }
  Envelope envelope =
      codec::decode<Envelope>(packet.payload, host_.process_count());
  // Acknowledge every arrival (the original ACK may have been lost).
  Packet ack;
  ack.dst = packet.src;
  ack.is_control = true;
  ack.kind = "RACK";
  codec::put_u64(ack.payload, envelope.seq);
  host_.send_packet(std::move(ack));
  // De-duplicate per source, then hand the restored packet up.
  if (!seen_[packet.src].insert(envelope.seq).second) return;
  inner_->on_packet({packet.src, packet.dst, packet.is_control,
                     packet.user_msg, packet.kind,
                     std::move(envelope.inner)});
}

bool ReliableProtocol::quiescent() const {
  // An unacked shipment is an obligation: a retransmission is owed.
  return pending_.empty() && inner_->quiescent();
}

ProtocolFactory ReliableProtocol::wrap(ProtocolFactory inner,
                                       ReliableOptions options) {
  return [inner = std::move(inner), options](Host& host) {
    return std::make_unique<ReliableProtocol>(host, inner, options);
  };
}

}  // namespace msgorder
