#include "src/verify/mutants.hpp"

#include <memory>
#include <vector>

#include "src/protocols/causal_rst.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/state_codec.hpp"
#include "src/protocols/sync_token.hpp"
#include "src/spec/library.hpp"

namespace msgorder {

namespace {

// ---------------------------------------------------------------------
// fifo-overtake: a resequencer that loses patience.  Identical to the
// clean FIFO stack until two packets are buffered on one channel; then
// it flushes the whole buffer immediately — out of order — and skips
// the expected counter past everything flushed.
class FifoOvertakeMutant final : public FieldProtocol<FifoOvertakeMutant> {
 public:
  explicit FifoOvertakeMutant(Host& host)
      : FieldProtocol(host.process_count()), host_(host) {}

  void on_invoke(const Message& m) override {
    host_.send_packet(state_.send(m));
  }

  void on_packet(const Packet& packet) override {
    if (packet.is_control) return;
    const std::uint32_t seq = codec::Reader(packet.payload).u32();
    FifoProtocol::State::Inbox& inbox = state_.in[packet.src];
    if (seq < inbox.expected) {
      // A flush already skipped past this packet: deliver it late —
      // still out of order, but nothing is ever stranded, so every run
      // completes and the verifier reports the ordering violation
      // (not a deadlock).
      host_.deliver(packet.user_msg);
      return;
    }
    inbox.buffer.push_back({packet.user_msg, seq});
    inbox.drain(host_);
    if (inbox.buffer.size() >= 2) {
      // THE BUG: impatience.  Flush everything buffered in arrival
      // order, gaps and all, and never look back.
      for (const FifoProtocol::State::Pending& p : inbox.buffer) {
        host_.deliver(p.msg);
        if (p.seq >= inbox.expected) inbox.expected = p.seq + 1;
      }
      inbox.buffer.clear();
    }
  }

  std::string name() const override { return "mutant:fifo-overtake"; }
  bool quiescent() const override { return state_.quiescent(); }

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.state_); }

 private:
  Host& host_;
  FifoProtocol::State state_;
};

// ---------------------------------------------------------------------
// fifo-stuck: an off-by-one that strands messages.  On an out-of-order
// arrival it buffers the packet but ALSO advances the expected counter,
// so once the missing predecessor finally arrives its sequence number
// is already in the past and the drain never matches it: the buffered
// message is stuck forever (a deadlock the verifier must reach).
class FifoStuckMutant final : public FieldProtocol<FifoStuckMutant> {
 public:
  explicit FifoStuckMutant(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override {
    host_.send_packet(state_.send(m));
  }

  void on_packet(const Packet& packet) override {
    if (packet.is_control) return;
    const std::uint32_t seq = codec::Reader(packet.payload).u32();
    FifoProtocol::State::Inbox& inbox = state_.in[packet.src];
    if (seq == inbox.expected) {
      host_.deliver(packet.user_msg);
      ++inbox.expected;
    } else {
      inbox.buffer.push_back({packet.user_msg, seq});
      ++inbox.expected;  // THE BUG: skipping ahead strands the predecessor
    }
    inbox.drain(host_);
    if (report_holds_) {
      for (const FifoProtocol::State::Pending& p : inbox.buffer) {
        host_.hold(p.msg,
                   HoldReason::predecessor(std::nullopt, packet.src));
      }
    }
  }

  std::string name() const override { return "mutant:fifo-stuck"; }
  bool quiescent() const override { return state_.quiescent(); }

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.state_); }

 private:
  Host& host_;
  const bool report_holds_;
  FifoProtocol::State state_;
};

// ---------------------------------------------------------------------
// causal-no-merge: Raynal-Schiper-Toueg without the transitive
// knowledge merge.  Delivery updates the per-channel count for the
// delivered message itself but does NOT merge the sender's matrix, so
// knowledge acquired through an intermediary is lost and a relay chain
// can overtake its causal past.
class CausalNoMergeMutant final : public FieldProtocol<CausalNoMergeMutant> {
 public:
  explicit CausalNoMergeMutant(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        state_(host.process_count()) {}

  void on_invoke(const Message& m) override {
    host_.send_packet(state_.send(m, host_.self()));
  }

  void on_packet(const Packet& packet) override {
    if (packet.is_control) return;
    state_.buffer.push_back({packet.user_msg, packet.src,
                             codec::decode<CausalRstProtocol::Tag>(
                                 packet.payload, host_.process_count())});
    drain();
  }

  std::string name() const override { return "mutant:causal-no-merge"; }
  bool quiescent() const override { return state_.buffer.empty(); }

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.state_); }

 private:
  void drain() {
    auto& buffer = state_.buffer;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = buffer.begin(); it != buffer.end(); ++it) {
        if (state_.deliverable(it->tag, host_.self())) {
          host_.deliver(it->msg);
          state_.delivered[it->src] += 1;
          // THE BUG: no sent.merge(it->tag.sent) — transitively
          // learned sends are forgotten, so this process's future tags
          // under-constrain receivers downstream of the relay.
          auto& cell = state_.sent.at(it->src, host_.self());
          const std::uint32_t with_self =
              it->tag.sent.at(it->src, host_.self()) + 1;
          if (cell < with_self) cell = with_self;
          buffer.erase(it);
          progressed = true;
          break;
        }
      }
    }
  }

  Host& host_;
  CausalRstProtocol::State state_;
};

// ---------------------------------------------------------------------
// token-early-release: a token ring that transmits every queued
// message the moment it holds the token and passes it on without
// waiting for any acknowledgement.  Exchanges are no longer serialized
// into disjoint intervals: two back-to-back sends can cross on a
// reordering channel — a causal (and 2-crown) violation of the
// logical-synchrony claim.  It never awaits an ack, so its state's
// awaiting_ack stays false.
class TokenEarlyReleaseMutant final
    : public FieldProtocol<TokenEarlyReleaseMutant> {
 public:
  explicit TokenEarlyReleaseMutant(Host& host)
      : FieldProtocol(host.process_count()), host_(host) {
    if (host_.self() == 0 && host_.process_count() > 1) {
      state_.holding = true;
    }
  }

  void on_invoke(const Message& m) override {
    state_.pending.push_back(m.id);
    if (state_.holding) serve_and_pass();
  }

  void on_packet(const Packet& packet) override {
    if (!packet.is_control) {
      host_.deliver(packet.user_msg);  // THE BUG: no ack back
      return;
    }
    if (packet.kind == "TOKEN") {
      state_.holding = true;
      serve_and_pass();
    }
  }

  std::string name() const override {
    return "mutant:token-early-release";
  }

  bool quiescent() const override { return state_.pending.empty(); }

  template <class S, class IO>
  static void fields(S& self, IO& io) { io(self.state_); }

 private:
  void serve_and_pass() {
    while (!state_.pending.empty()) {
      const MessageId msg = state_.pending.front();
      state_.pending.pop_front();
      Packet pkt;
      pkt.dst = host_.message(msg).dst;
      pkt.user_msg = msg;
      host_.send_packet(std::move(pkt));
    }
    state_.holding = false;
    Packet token;
    token.dst = static_cast<ProcessId>((host_.self() + 1) %
                                       host_.process_count());
    token.is_control = true;
    token.kind = "TOKEN";
    host_.send_packet(std::move(token));
  }

  Host& host_;
  SyncTokenProtocol::State state_;
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
