// The tagless "do nothing" protocol: sends immediately, delivers on
// arrival.  Its run set is all of X_async — this is the protocol whose
// existence makes every specification containing X_async trivially
// implementable (Theorem 1.3).
#pragma once

#include "src/protocols/protocol.hpp"

namespace msgorder {

class AsyncProtocol final : public Protocol {
 public:
  explicit AsyncProtocol(Host& host) : host_(host) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "async"; }
  /// Stateless: the empty encoding is the canonical snapshot.
  bool snapshot(std::string& out) const override {
    (void)out;
    return true;
  }
  bool restore(codec::Reader& in) override {
    (void)in;
    return true;
  }

  static ProtocolFactory factory();

 private:
  Host& host_;
};

}  // namespace msgorder
