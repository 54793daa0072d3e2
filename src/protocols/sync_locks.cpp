#include "src/protocols/sync_locks.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/protocols/state_codec.hpp"

namespace msgorder {

void SyncLocksProtocol::on_invoke(const Message& m) {
  pending_.push_back(m.id);
  if (!active_.has_value()) start_next_exchange();
  if (report_holds_ && active_.has_value() && active_->msg != m.id) {
    // Queued behind the exchange this sender is already driving.
    host_.hold(m.id, HoldReason::lock(active_->msg, std::nullopt));
  }
}

void SyncLocksProtocol::start_next_exchange() {
  if (pending_.empty()) return;
  const MessageId msg = pending_.front();
  pending_.pop_front();
  const ProcessId self = host_.self();
  const ProcessId dst = host_.message(msg).dst;
  Exchange exchange;
  exchange.msg = msg;
  exchange.first_lock = std::min(self, dst);
  exchange.second_lock = std::max(self, dst);
  active_ = exchange;
  request_lock(exchange.first_lock, msg);
  if (report_holds_ && active_.has_value() && active_->msg == msg &&
      active_->locks_held == 0) {
    // The grant did not come back synchronously: the exchange now waits
    // on its first endpoint lock.
    host_.hold(msg, HoldReason::lock(std::nullopt, exchange.first_lock));
  }
}

void SyncLocksProtocol::request_lock(ProcessId owner, MessageId msg) {
  if (owner == host_.self()) {
    enqueue_request(host_.self(), msg);
    return;
  }
  Packet req;
  req.dst = owner;
  req.is_control = true;
  req.kind = "LREQ";
  codec::put_u32(req.payload, msg);
  host_.send_packet(std::move(req));
}

void SyncLocksProtocol::lock_granted(MessageId msg) {
  assert(active_.has_value() && active_->msg == msg);
  active_->locks_held += 1;
  if (active_->locks_held == 1 &&
      active_->second_lock != active_->first_lock) {
    request_lock(active_->second_lock, msg);
    if (report_holds_ && active_.has_value() && active_->msg == msg &&
        active_->locks_held == 1) {
      // Still waiting: re-attribute to the second endpoint lock (this
      // closes the first-lock segment at the boundary instant).
      host_.hold(msg, HoldReason::lock(std::nullopt, active_->second_lock));
    }
    return;
  }
  // Both endpoint locks held: the exchange owns its interval; transmit.
  Packet pkt;
  pkt.dst = host_.message(msg).dst;
  pkt.user_msg = msg;
  host_.send_packet(std::move(pkt));
}

void SyncLocksProtocol::finish_exchange(MessageId msg) {
  assert(active_.has_value() && active_->msg == msg);
  const Exchange exchange = *active_;
  active_.reset();
  for (ProcessId owner : {exchange.first_lock, exchange.second_lock}) {
    if (owner == host_.self()) {
      release(host_.self(), msg);
    } else {
      Packet rel;
      rel.dst = owner;
      rel.is_control = true;
      rel.kind = "LREL";
      codec::put_u32(rel.payload, msg);
      host_.send_packet(std::move(rel));
    }
    if (exchange.first_lock == exchange.second_lock) break;
  }
  start_next_exchange();
  if (report_holds_ && active_.has_value()) {
    // The queue moved up: whatever is still pending now waits behind
    // the newly started exchange.
    for (const MessageId p : pending_) {
      host_.hold(p, HoldReason::lock(active_->msg, std::nullopt));
    }
  }
}

void SyncLocksProtocol::enqueue_request(ProcessId requester,
                                        MessageId msg) {
  lock_.queue.emplace_back(requester, msg);
  try_grant();
}

void SyncLocksProtocol::try_grant() {
  if (lock_.holder.has_value() || lock_.queue.empty()) return;
  lock_.holder = lock_.queue.front();
  lock_.queue.pop_front();
  send_grant(lock_.holder->first, lock_.holder->second);
}

void SyncLocksProtocol::send_grant(ProcessId requester, MessageId msg) {
  if (requester == host_.self()) {
    lock_granted(msg);
    return;
  }
  Packet grant;
  grant.dst = requester;
  grant.is_control = true;
  grant.kind = "LGRANT";
  codec::put_u32(grant.payload, msg);
  host_.send_packet(std::move(grant));
}

void SyncLocksProtocol::release(ProcessId requester, MessageId msg) {
  assert(lock_.holder.has_value() &&
         lock_.holder->first == requester &&
         lock_.holder->second == msg);
  (void)requester;
  (void)msg;
  lock_.holder.reset();
  try_grant();
}

void SyncLocksProtocol::on_packet(const Packet& packet) {
  if (!packet.is_control) {
    host_.deliver(packet.user_msg);
    Packet ack;
    ack.dst = packet.src;
    ack.is_control = true;
    ack.kind = "MACK";
    codec::put_u32(ack.payload, packet.user_msg);
    host_.send_packet(std::move(ack));
    return;
  }
  const MessageId msg = codec::Reader(packet.payload).u32();
  if (packet.kind == "LREQ") {
    enqueue_request(packet.src, msg);
  } else if (packet.kind == "LGRANT") {
    lock_granted(msg);
  } else if (packet.kind == "LREL") {
    release(packet.src, msg);
  } else if (packet.kind == "MACK") {
    finish_exchange(msg);
  }
}

bool SyncLocksProtocol::snapshot(std::string& out) const {
  codec::put_u32(out, static_cast<std::uint32_t>(pending_.size()));
  for (const MessageId msg : pending_) codec::put_u32(out, msg);
  codec::put_u8(out, active_.has_value() ? 1 : 0);
  if (active_.has_value()) {
    codec::put_u32(out, active_->msg);
    codec::put_u32(out, active_->first_lock);
    codec::put_u32(out, active_->second_lock);
    codec::put_u8(out, static_cast<std::uint8_t>(active_->locks_held));
  }
  codec::put_u8(out, lock_.holder.has_value() ? 1 : 0);
  if (lock_.holder.has_value()) {
    codec::put_u32(out, lock_.holder->first);
    codec::put_u32(out, lock_.holder->second);
  }
  codec::put_u32(out, static_cast<std::uint32_t>(lock_.queue.size()));
  for (const auto& [requester, msg] : lock_.queue) {
    codec::put_u32(out, requester);
    codec::put_u32(out, msg);
  }
  return true;
}

ProtocolFactory SyncLocksProtocol::factory() {
  return [](Host& host) {
    return std::make_unique<SyncLocksProtocol>(host);
  };
}

}  // namespace msgorder
