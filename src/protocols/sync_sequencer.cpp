#include "src/protocols/sync_sequencer.hpp"

#include <cassert>
#include <memory>

namespace msgorder {

void SyncSequencerProtocol::on_invoke(const Message& m) {
  // Unless this is the idle sequencer granting itself, the message now
  // waits for the sequencer's grant; the segment the engine opens here
  // closes exactly at x.s when the grant arrives.
  const bool immediate =
      host_.self() == kSequencer && !busy_ && grant_queue_.empty();
  if (report_holds_ && !immediate) {
    host_.hold(m.id, HoldReason::sequencer(kSequencer));
  }
  request(m.id);
}

void SyncSequencerProtocol::request(MessageId msg) {
  if (host_.self() == kSequencer) {
    enqueue(kSequencer, msg);
    return;
  }
  Packet req;
  req.dst = kSequencer;
  req.is_control = true;
  req.kind = "REQ";
  codec::put_u32(req.payload, msg);
  host_.send_packet(std::move(req));
}

void SyncSequencerProtocol::enqueue(ProcessId requester, MessageId msg) {
  assert(host_.self() == kSequencer);
  grant_queue_.emplace_back(requester, msg);
  try_grant();
}

void SyncSequencerProtocol::try_grant() {
  if (busy_ || grant_queue_.empty()) return;
  busy_ = true;
  const auto [requester, msg] = grant_queue_.front();
  grant_queue_.pop_front();
  if (requester == kSequencer) {
    granted(msg);
    return;
  }
  Packet grant;
  grant.dst = requester;
  grant.is_control = true;
  grant.kind = "GRANT";
  codec::put_u32(grant.payload, msg);
  host_.send_packet(std::move(grant));
}

void SyncSequencerProtocol::granted(MessageId msg) {
  Packet pkt;
  pkt.dst = host_.message(msg).dst;
  pkt.user_msg = msg;
  host_.send_packet(std::move(pkt));
}

void SyncSequencerProtocol::exchange_done() {
  assert(host_.self() == kSequencer);
  busy_ = false;
  try_grant();
}

void SyncSequencerProtocol::on_packet(const Packet& packet) {
  if (!packet.is_control) {
    host_.deliver(packet.user_msg);
    if (host_.self() == kSequencer) {
      exchange_done();
    } else {
      Packet done;
      done.dst = kSequencer;
      done.is_control = true;
      done.kind = "DONE";
      host_.send_packet(std::move(done));
    }
    return;
  }
  if (packet.kind == "REQ") {
    enqueue(packet.src, codec::Reader(packet.payload).u32());
  } else if (packet.kind == "GRANT") {
    granted(codec::Reader(packet.payload).u32());
  } else if (packet.kind == "DONE") {
    exchange_done();
  }
}

ProtocolFactory SyncSequencerProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<SyncSequencerProtocol>(host);
  };
}

}  // namespace msgorder
