// The Schiper-Eggli-Sandoz causal-ordering protocol [21]: instead of the
// full n x n matrix, each message carries the sender's vector time plus
// one (destination, vector-time) pair per destination it knows about —
// O(n) in the common case.  Delivery of m at j waits until every message
// to j that the piggybacked pair list proves causally earlier has been
// delivered (reflected in j's merged vector time).
//
// Together with causal-rst this gives two independent tagged
// implementations of X_co; the conformance tests check they accept and
// produce exactly causally ordered runs, and bench E2 contrasts their
// tag sizes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/protocols/protocol.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {

class CausalSesProtocol final : public FieldProtocol<CausalSesProtocol> {
 public:
  explicit CausalSesProtocol(Host& host)
      : FieldProtocol(host.process_count()),
        host_(host),
        report_holds_(host.wants_hold_reasons()),
        time_(host.process_count()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "causal-ses"; }
  bool quiescent() const override { return buffer_.empty(); }

  static ProtocolFactory factory();

  /// The tag: the timestamp, then each (destination, vector) pair with
  /// no count — (1 + |last_sent|) * 4n + 4 |last_sent| bytes.
  struct Tag {
    VectorClock timestamp;  // send event's vector time
    /// Per-destination vector times of the latest causally known message
    /// to that destination (the V_SND set of the original paper).
    std::map<ProcessId, VectorClock> last_sent;

    template <class S, class IO>
    static void fields(S& tag, IO& io) {
      io(tag.timestamp);
      io.trailing(tag.last_sent);
    }
    bool operator==(const Tag&) const = default;
  };

  template <class S, class IO>
  static void fields(S& self, IO& io) {
    io(self.time_, self.last_sent_);
    io.sorted(self.buffer_, &Buffered::msg);
  }

 private:
  bool deliverable(const Tag& tag) const;
  /// The first vector component where the tag's proof of a causally
  /// prior message to us outruns our merged time (only meaningful when
  /// !deliverable(tag)).
  ProcessId blocking_component(const Tag& tag) const;
  void drain();
  void absorb(const Tag& tag);

  struct Buffered {
    MessageId msg;
    Tag tag;

    template <class S, class IO>
    static void fields(S& b, IO& io) {
      io(b.msg);
      io.nested(b.tag);
    }
  };

  Host& host_;
  const bool report_holds_;
  /// Merged vector time of everything delivered here plus own sends.
  VectorClock time_;
  /// This process's knowledge of the last message sent to each
  /// destination (merged from delivered tags and own sends).
  std::map<ProcessId, VectorClock> last_sent_;
  std::vector<Buffered> buffer_;
};

}  // namespace msgorder
