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

namespace msgorder {

class FifoProtocol final : public Protocol {
 public:
  explicit FifoProtocol(Host& host)
      : host_(host), report_holds_(host.wants_hold_reasons()) {}

  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "fifo"; }
  bool snapshot(std::string& out) const override;
  bool restore(codec::Reader& in) override;
  bool quiescent() const override;

  static ProtocolFactory factory();

 private:
  struct Pending {
    MessageId msg;
    std::uint32_t seq;
  };

  Host& host_;
  const bool report_holds_;
  /// Next sequence number per destination (this process is the source).
  std::map<ProcessId, std::uint32_t> next_out_;
  /// Next expected sequence per source, and the out-of-order buffer.
  std::map<ProcessId, std::uint32_t> next_in_;
  std::map<ProcessId, std::vector<Pending>> buffer_;
};

}  // namespace msgorder
