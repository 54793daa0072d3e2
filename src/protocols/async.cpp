#include "src/protocols/async.hpp"

#include <memory>

namespace msgorder {

void AsyncProtocol::on_invoke(const Message& m) {
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  host_.send_packet(std::move(pkt));
}

void AsyncProtocol::on_packet(const Packet& packet) {
  if (!packet.is_control) host_.deliver(packet.user_msg);
}

ProtocolFactory AsyncProtocol::factory() {
  return [](Host& host) { return std::make_unique<AsyncProtocol>(host); };
}

}  // namespace msgorder
