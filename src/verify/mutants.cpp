#include "src/verify/mutants.hpp"

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/protocols/causal_rst.hpp"
#include "src/protocols/state_codec.hpp"
#include "src/spec/library.hpp"

namespace msgorder {

namespace {

// ---------------------------------------------------------------------
// fifo-overtake: a resequencer that loses patience.  Identical to the
// clean FIFO stack until two packets are buffered on one channel; then
// it flushes the whole buffer immediately — out of order — and skips
// the expected counter past everything flushed.
class FifoOvertakeMutant final : public Protocol {
 public:
  explicit FifoOvertakeMutant(Host& host) : host_(host) {}

  void on_invoke(const Message& m) override {
    Packet pkt;
    pkt.dst = m.dst;
    pkt.user_msg = m.id;
    codec::put_u32(pkt.payload, next_out_[m.dst]++);
    host_.send_packet(std::move(pkt));
  }

  void on_packet(const Packet& packet) override {
    if (packet.is_control) return;
    const std::uint32_t seq = codec::Reader(packet.payload).u32();
    auto& expected = next_in_[packet.src];
    auto& buffer = buffer_[packet.src];
    if (seq < expected) {
      // A flush already skipped past this packet: deliver it late —
      // still out of order, but nothing is ever stranded, so every run
      // completes and the verifier reports the ordering violation
      // (not a deadlock).
      host_.deliver(packet.user_msg);
      return;
    }
    buffer.push_back({packet.user_msg, seq});
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = buffer.begin(); it != buffer.end(); ++it) {
        if (it->seq == expected) {
          host_.deliver(it->msg);
          ++expected;
          buffer.erase(it);
          progressed = true;
          break;
        }
      }
    }
    if (buffer.size() >= 2) {
      // THE BUG: impatience.  Flush everything buffered in arrival
      // order, gaps and all, and never look back.
      for (const Pending& p : buffer) {
        host_.deliver(p.msg);
        if (p.seq >= expected) expected = p.seq + 1;
      }
      buffer.clear();
    }
  }

  std::string name() const override { return "mutant:fifo-overtake"; }

  bool snapshot(std::string& out) const override {
    encode_seq_maps(out, next_out_, next_in_, buffer_);
    return true;
  }
  bool restore(codec::Reader& in) override {
    decode_seq_maps(in, next_out_, next_in_, buffer_);
    return true;
  }
  bool quiescent() const override {
    for (const auto& [src, pendings] : buffer_) {
      if (!pendings.empty()) return false;
    }
    return true;
  }

  struct Pending {
    MessageId msg;
    std::uint32_t seq;
  };

  static void encode_seq_maps(
      std::string& out, const std::map<ProcessId, std::uint32_t>& next_out,
      const std::map<ProcessId, std::uint32_t>& next_in,
      const std::map<ProcessId, std::vector<Pending>>& buffers) {
    codec::put_u32_map(out, next_out);
    codec::put_u32_map(out, next_in);
    codec::put_u32(out, static_cast<std::uint32_t>(buffers.size()));
    for (const auto& [src, pendings] : buffers) {
      codec::put_u32(out, src);
      codec::put_u32(out, static_cast<std::uint32_t>(pendings.size()));
      for (const Pending* p : codec::sorted_by(
               pendings, [](const Pending& x) { return x.seq; })) {
        codec::put_u32(out, p->msg);
        codec::put_u32(out, p->seq);
      }
    }
  }
  static void decode_seq_maps(
      codec::Reader& in, std::map<ProcessId, std::uint32_t>& next_out,
      std::map<ProcessId, std::uint32_t>& next_in,
      std::map<ProcessId, std::vector<Pending>>& buffers) {
    codec::read_u32_map(in, next_out);
    codec::read_u32_map(in, next_in);
    buffers.clear();
    for (std::uint32_t k = in.u32(); k > 0; --k) {
      std::vector<Pending>& pendings = buffers[in.u32()];
      pendings.resize(in.u32());
      for (Pending& p : pendings) {
        p.msg = in.u32();
        p.seq = in.u32();
      }
    }
  }

 protected:
  Host& host_;
  std::map<ProcessId, std::uint32_t> next_out_;
  std::map<ProcessId, std::uint32_t> next_in_;
  std::map<ProcessId, std::vector<Pending>> buffer_;
};

// ---------------------------------------------------------------------
// fifo-stuck: an off-by-one that strands messages.  On an out-of-order
// arrival it buffers the packet but ALSO advances the expected counter,
// so once the missing predecessor finally arrives its sequence number
// is already in the past and the drain never matches it: the buffered
// message is stuck forever (a deadlock the verifier must reach).
class FifoStuckMutant final : public Protocol {
 public:
  explicit FifoStuckMutant(Host& host)
      : host_(host), report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override {
    Packet pkt;
    pkt.dst = m.dst;
    pkt.user_msg = m.id;
    codec::put_u32(pkt.payload, next_out_[m.dst]++);
    host_.send_packet(std::move(pkt));
  }

  void on_packet(const Packet& packet) override {
    if (packet.is_control) return;
    const std::uint32_t seq = codec::Reader(packet.payload).u32();
    auto& expected = next_in_[packet.src];
    auto& buffer = buffer_[packet.src];
    if (seq == expected) {
      host_.deliver(packet.user_msg);
      ++expected;
    } else {
      buffer.push_back({packet.user_msg, seq});
      ++expected;  // THE BUG: skipping ahead strands the predecessor
    }
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = buffer.begin(); it != buffer.end(); ++it) {
        if (it->seq == expected) {
          host_.deliver(it->msg);
          ++expected;
          buffer.erase(it);
          progressed = true;
          break;
        }
      }
    }
    if (report_holds_) {
      for (const FifoOvertakeMutant::Pending& p : buffer) {
        host_.hold(p.msg,
                   HoldReason::predecessor(std::nullopt, packet.src));
      }
    }
  }

  std::string name() const override { return "mutant:fifo-stuck"; }

  bool snapshot(std::string& out) const override {
    FifoOvertakeMutant::encode_seq_maps(out, next_out_, next_in_, buffer_);
    return true;
  }
  bool restore(codec::Reader& in) override {
    FifoOvertakeMutant::decode_seq_maps(in, next_out_, next_in_, buffer_);
    return true;
  }
  bool quiescent() const override {
    for (const auto& [src, pendings] : buffer_) {
      if (!pendings.empty()) return false;
    }
    return true;
  }

 private:
  Host& host_;
  const bool report_holds_;
  std::map<ProcessId, std::uint32_t> next_out_;
  std::map<ProcessId, std::uint32_t> next_in_;
  std::map<ProcessId, std::vector<FifoOvertakeMutant::Pending>> buffer_;
};

// ---------------------------------------------------------------------
// causal-no-merge: Raynal-Schiper-Toueg without the transitive
// knowledge merge.  Delivery updates the per-channel count for the
// delivered message itself but does NOT merge the sender's matrix, so
// knowledge acquired through an intermediary is lost and a relay chain
// can overtake its causal past.
class CausalNoMergeMutant final : public Protocol {
 public:
  explicit CausalNoMergeMutant(Host& host)
      : host_(host),
        sent_(host.process_count()),
        delivered_(host.process_count(), 0) {}

  using Tag = CausalRstProtocol::Tag;

  void on_invoke(const Message& m) override {
    Packet pkt;
    pkt.dst = m.dst;
    pkt.user_msg = m.id;
    Tag::encode(pkt.payload, sent_);
    sent_.at(host_.self(), m.dst) += 1;
    host_.send_packet(std::move(pkt));
  }

  void on_packet(const Packet& packet) override {
    if (packet.is_control) return;
    buffer_.push_back({packet.user_msg, packet.src,
                       Tag::decode(packet.payload, host_.process_count())});
    drain();
  }

  std::string name() const override { return "mutant:causal-no-merge"; }

  bool snapshot(std::string& out) const override {
    codec::put_matrix_clock(out, sent_);
    for (const std::uint32_t d : delivered_) codec::put_u32(out, d);
    const auto sorted =
        codec::sorted_by(buffer_, [](const Buffered& b) { return b.msg; });
    codec::put_u32(out, static_cast<std::uint32_t>(sorted.size()));
    for (const Buffered* b : sorted) {
      codec::put_u32(out, b->msg);
      codec::put_u32(out, b->src);
      Tag::encode(out, b->tag.sent);
    }
    return true;
  }
  bool restore(codec::Reader& in) override {
    const std::size_t n = host_.process_count();
    sent_ = in.matrix_clock(n);
    for (std::uint32_t& d : delivered_) d = in.u32();
    buffer_.resize(in.u32());
    for (Buffered& b : buffer_) {
      b.msg = in.u32();
      b.src = in.u32();
      b.tag.sent = in.matrix_clock(n);
    }
    return true;
  }
  bool quiescent() const override { return buffer_.empty(); }

 private:
  struct Buffered {
    MessageId msg;
    ProcessId src;
    Tag tag;
  };

  bool deliverable(const Tag& tag) const {
    const ProcessId self = host_.self();
    for (std::size_t k = 0; k < delivered_.size(); ++k) {
      if (delivered_[k] < tag.sent.at(k, self)) return false;
    }
    return true;
  }

  void drain() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
        if (deliverable(it->tag)) {
          host_.deliver(it->msg);
          delivered_[it->src] += 1;
          // THE BUG: no sent_.merge(it->tag.sent) — transitively
          // learned sends are forgotten, so this process's future tags
          // under-constrain receivers downstream of the relay.
          auto& cell = sent_.at(it->src, host_.self());
          const std::uint32_t with_self =
              it->tag.sent.at(it->src, host_.self()) + 1;
          if (cell < with_self) cell = with_self;
          buffer_.erase(it);
          progressed = true;
          break;
        }
      }
    }
  }

  Host& host_;
  MatrixClock sent_;
  std::vector<std::uint32_t> delivered_;
  std::vector<Buffered> buffer_;
};

// ---------------------------------------------------------------------
// token-early-release: a token ring that transmits every queued
// message the moment it holds the token and passes it on without
// waiting for any acknowledgement.  Exchanges are no longer serialized
// into disjoint intervals: two back-to-back sends can cross on a
// reordering channel — a causal (and 2-crown) violation of the
// logical-synchrony claim.
class TokenEarlyReleaseMutant final : public Protocol {
 public:
  explicit TokenEarlyReleaseMutant(Host& host) : host_(host) {
    if (host_.self() == 0 && host_.process_count() > 1) {
      holding_ = true;
    }
  }

  void on_invoke(const Message& m) override {
    pending_.push_back(m.id);
    if (holding_) serve_and_pass();
  }

  void on_packet(const Packet& packet) override {
    if (!packet.is_control) {
      host_.deliver(packet.user_msg);  // THE BUG: no ack back
      return;
    }
    if (packet.kind == "TOKEN") {
      holding_ = true;
      serve_and_pass();
    }
  }

  std::string name() const override {
    return "mutant:token-early-release";
  }

  bool snapshot(std::string& out) const override {
    codec::put_u8(out, holding_ ? 1 : 0);
    codec::put_u32(out, static_cast<std::uint32_t>(pending_.size()));
    for (const MessageId msg : pending_) codec::put_u32(out, msg);
    return true;
  }
  bool restore(codec::Reader& in) override {
    holding_ = in.u8() != 0;
    pending_.resize(in.u32());
    for (MessageId& msg : pending_) msg = in.u32();
    return true;
  }
  bool quiescent() const override { return pending_.empty(); }

 private:
  void serve_and_pass() {
    while (!pending_.empty()) {
      const MessageId msg = pending_.front();
      pending_.pop_front();
      Packet pkt;
      pkt.dst = host_.message(msg).dst;
      pkt.user_msg = msg;
      host_.send_packet(std::move(pkt));
    }
    holding_ = false;
    Packet token;
    token.dst = static_cast<ProcessId>((host_.self() + 1) %
                                       host_.process_count());
    token.is_control = true;
    token.kind = "TOKEN";
    host_.send_packet(std::move(token));
  }

  Host& host_;
  std::deque<MessageId> pending_;
  bool holding_ = false;
};

CompositeSpec spec_of(std::vector<ForbiddenPredicate> predicates) {
  CompositeSpec spec;
  spec.predicates = std::move(predicates);
  return spec;
}

CompositeSpec sync_spec() {
  CompositeSpec spec = logically_synchronous(4);
  spec.predicates.push_back(causal_ordering());
  return spec;
}

template <class P>
ProtocolFactory factory_of() {
  return [](Host& host) { return std::make_unique<P>(host); };
}

}  // namespace

std::vector<MutantProtocol> mutant_protocols() {
  return {
      {"mutant:fifo-overtake",
       "fifo resequencer that flushes its buffer out of order once two "
       "packets queue up",
       "violation", factory_of<FifoOvertakeMutant>(), spec_of({fifo()})},
      {"mutant:fifo-stuck",
       "fifo resequencer that advances the expected counter on an "
       "out-of-order arrival, stranding the predecessor",
       "deadlock", factory_of<FifoStuckMutant>(), spec_of({fifo()})},
      {"mutant:causal-no-merge",
       "RST causal protocol without the transitive matrix merge on "
       "delivery",
       "violation", factory_of<CausalNoMergeMutant>(),
       spec_of({fifo(), causal_ordering()})},
      {"mutant:token-early-release",
       "token ring that transmits and passes the token without awaiting "
       "the receiver's ack",
       "violation", factory_of<TokenEarlyReleaseMutant>(), sync_spec()},
  };
}

}  // namespace msgorder
