#include "src/apps/multicast.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/protocols/state_codec.hpp"

namespace msgorder {

Workload broadcast_workload(const BroadcastWorkloadOptions& options,
                            Rng& rng) {
  assert(options.n_processes >= 2);
  Workload workload;
  SimTime t = 0;
  MessageId next_id = 0;
  for (std::size_t b = 0; b < options.n_broadcasts; ++b) {
    t += rng.exponential(options.mean_gap);
    const auto src =
        static_cast<ProcessId>(rng.below(options.n_processes));
    for (ProcessId dst = 0; dst < options.n_processes; ++dst) {
      if (dst == src) continue;
      Message m;
      m.id = next_id++;
      m.src = src;
      m.dst = dst;
      m.mcast = static_cast<int>(b);
      workload.push_back({t, m});
    }
  }
  return workload;
}

std::optional<UserEvent> group_send(const UserRun& run, int group) {
  for (const Message& m : run.messages()) {
    if (m.mcast == group) return UserEvent{m.id, UserEventKind::kSend};
  }
  return std::nullopt;
}

std::optional<MessageId> group_copy_at(const UserRun& run, int group,
                                       ProcessId p) {
  for (const Message& m : run.messages()) {
    if (m.mcast == group && m.dst == p) return m.id;
  }
  return std::nullopt;
}

namespace {

int max_group(const UserRun& run) {
  int g = -1;
  for (const Message& m : run.messages()) g = std::max(g, m.mcast);
  return g;
}

}  // namespace

bool causal_broadcast_ok(const UserRun& run) {
  const int groups = max_group(run) + 1;
  const std::size_t n = run.process_count();
  for (int g1 = 0; g1 < groups; ++g1) {
    const auto s1 = group_send(run, g1);
    if (!s1.has_value()) continue;
    for (int g2 = 0; g2 < groups; ++g2) {
      if (g1 == g2) continue;
      const auto s2 = group_send(run, g2);
      if (!s2.has_value() || !run.before(*s1, *s2)) continue;
      for (ProcessId p = 0; p < n; ++p) {
        const auto c1 = group_copy_at(run, g1, p);
        const auto c2 = group_copy_at(run, g2, p);
        if (!c1.has_value() || !c2.has_value()) continue;
        if (run.before(*c2, UserEventKind::kDeliver, *c1,
                       UserEventKind::kDeliver)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool total_order_ok(const UserRun& run) {
  const int groups = max_group(run) + 1;
  const std::size_t n = run.process_count();
  for (int g1 = 0; g1 < groups; ++g1) {
    for (int g2 = g1 + 1; g2 < groups; ++g2) {
      int orientation = 0;  // 0 unknown, +1 g1 first, -1 g2 first
      for (ProcessId p = 0; p < n; ++p) {
        const auto c1 = group_copy_at(run, g1, p);
        const auto c2 = group_copy_at(run, g2, p);
        if (!c1.has_value() || !c2.has_value()) continue;
        const bool first = run.before(*c1, UserEventKind::kDeliver, *c2,
                                      UserEventKind::kDeliver);
        const int here = first ? 1 : -1;
        if (orientation == 0) {
          orientation = here;
        } else if (orientation != here) {
          return false;
        }
      }
    }
  }
  return true;
}

// ---- AsyncBroadcast ------------------------------------------------------

void AsyncBroadcast::on_invoke(const Message& m) {
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  host_.send_packet(std::move(pkt));
}

void AsyncBroadcast::on_packet(const Packet& packet) {
  if (!packet.is_control) host_.deliver(packet.user_msg);
}

ProtocolFactory AsyncBroadcast::factory() {
  return [](Host& host) { return std::make_unique<AsyncBroadcast>(host); };
}

// ---- CausalBroadcastBss --------------------------------------------------

void CausalBroadcastBss::on_invoke(const Message& m) {
  if (m.mcast != last_group_ticked_) {
    // First copy of a new broadcast: stamp, then count it as our own.
    own_clock_before_ = delivered_;
    delivered_.tick(host_.self());
    last_group_ticked_ = m.mcast;
  }
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  codec::put_vector_clock(pkt.payload, own_clock_before_);
  host_.send_packet(std::move(pkt));
}

bool CausalBroadcastBss::deliverable(const Buffered& b) const {
  // Next-in-sequence from its origin, and the origin's causal past of
  // delivered broadcasts is covered here.
  if (delivered_[b.origin] != b.clock[b.origin]) return false;
  for (std::size_t k = 0; k < delivered_.size(); ++k) {
    if (k == b.origin) continue;
    if (delivered_[k] < b.clock[k]) return false;
  }
  return true;
}

void CausalBroadcastBss::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (deliverable(*it)) {
        host_.deliver(it->msg);
        delivered_.tick(it->origin);
        buffer_.erase(it);
        progressed = true;
        break;
      }
    }
  }
}

void CausalBroadcastBss::on_packet(const Packet& packet) {
  if (packet.is_control) return;
  buffer_.push_back(
      {packet.user_msg, packet.src,
       codec::Reader(packet.payload).vector_clock(host_.process_count())});
  drain();
}

ProtocolFactory CausalBroadcastBss::factory() {
  return [](Host& host) {
    return std::make_unique<CausalBroadcastBss>(host);
  };
}

// ---- TotalOrderBroadcast -------------------------------------------------

void TotalOrderBroadcast::on_invoke(const Message& m) {
  const bool first_copy = my_groups_.insert(m.mcast).second;
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  host_.send_packet(std::move(pkt));
  if (!first_copy) return;
  if (host_.self() == kSequencer) {
    assign_order(m.mcast);
  } else {
    Packet req;
    req.dst = kSequencer;
    req.is_control = true;
    req.kind = "REQ";
    codec::put_u32(req.payload, static_cast<std::uint32_t>(m.mcast));
    host_.send_packet(std::move(req));
  }
}

void TotalOrderBroadcast::assign_order(int group) {
  if (!sequenced_.insert(group).second) return;
  const std::uint32_t seq = next_seq_++;
  for (ProcessId p = 0; p < host_.process_count(); ++p) {
    if (p == host_.self()) continue;
    Packet order;
    order.dst = p;
    order.is_control = true;
    order.kind = "ORDER";
    codec::put_u32(order.payload, static_cast<std::uint32_t>(group));
    codec::put_u32(order.payload, seq);
    host_.send_packet(std::move(order));
  }
  learn_order(group, seq);
}

void TotalOrderBroadcast::learn_order(int group, std::uint32_t seq) {
  seq_to_group_[seq] = group;
  drain();
}

void TotalOrderBroadcast::drain() {
  for (;;) {
    const auto it = seq_to_group_.find(next_deliver_);
    if (it == seq_to_group_.end()) return;
    const int group = it->second;
    if (my_groups_.count(group) > 0) {
      // Our own broadcast: no local copy to deliver.
      ++next_deliver_;
      continue;
    }
    const auto copy = pending_copy_.find(group);
    if (copy == pending_copy_.end()) return;  // copy still in flight
    host_.deliver(copy->second);
    pending_copy_.erase(copy);
    ++next_deliver_;
  }
}

void TotalOrderBroadcast::on_packet(const Packet& packet) {
  if (!packet.is_control) {
    pending_copy_[host_.message(packet.user_msg).mcast] = packet.user_msg;
    drain();
    return;
  }
  if (packet.kind == "REQ") {
    assign_order(static_cast<int>(codec::Reader(packet.payload).u32()));
  } else if (packet.kind == "ORDER") {
    codec::Reader in(packet.payload);
    const auto group = static_cast<int>(in.u32());
    learn_order(group, in.u32());
  }
}

ProtocolFactory TotalOrderBroadcast::factory() {
  return [](Host& host) {
    return std::make_unique<TotalOrderBroadcast>(host);
  };
}

}  // namespace msgorder
