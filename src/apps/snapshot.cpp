#include "src/apps/snapshot.hpp"

#include <algorithm>

#include "src/protocols/state_codec.hpp"

namespace msgorder {

namespace {

std::uint32_t lookup(const std::map<ProcessId, std::uint32_t>& counters,
                     ProcessId key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

bool GlobalSnapshot::complete() const {
  if (processes.empty()) return false;
  for (std::size_t p = 0; p < processes.size(); ++p) {
    if (!processes[p].recorded) return false;
    // A marker must have arrived on every incoming channel.
    if (processes[p].channel_state.size() + 1 < processes.size()) {
      return false;
    }
  }
  return true;
}

bool GlobalSnapshot::consistent() const {
  for (std::size_t j = 0; j < processes.size(); ++j) {
    for (std::size_t i = 0; i < processes.size(); ++i) {
      if (i == j) continue;
      const std::uint32_t delivered =
          lookup(processes[j].delivered_at_cut, static_cast<ProcessId>(i));
      const std::uint32_t sent =
          lookup(processes[i].sent_at_cut, static_cast<ProcessId>(j));
      if (delivered > sent) return false;  // a message crossed backwards
    }
  }
  return true;
}

bool GlobalSnapshot::channel_states_account() const {
  for (std::size_t j = 0; j < processes.size(); ++j) {
    for (std::size_t i = 0; i < processes.size(); ++i) {
      if (i == j) continue;
      const std::uint32_t delivered =
          lookup(processes[j].delivered_at_cut, static_cast<ProcessId>(i));
      const std::uint32_t sent =
          lookup(processes[i].sent_at_cut, static_cast<ProcessId>(j));
      if (sent < delivered) return false;
      const auto it =
          processes[j].channel_state.find(static_cast<ProcessId>(i));
      const std::size_t recorded =
          it == processes[j].channel_state.end() ? 0 : it->second.size();
      if (recorded != sent - delivered) return false;
    }
  }
  return true;
}

std::string GlobalSnapshot::to_string() const {
  std::string out;
  for (std::size_t p = 0; p < processes.size(); ++p) {
    out += "P";
    out += std::to_string(p);
    out += processes[p].recorded ? " recorded;" : " NOT recorded;";
    for (const auto& [from, msgs] : processes[p].channel_state) {
      out += " ch" + std::to_string(from) + "->" + std::to_string(p) +
             ": " + std::to_string(msgs.size()) + " in flight;";
    }
    out += "\n";
  }
  return out;
}

SnapshotProtocol::SnapshotProtocol(Host& host, Options options,
                                   Registry* registry)
    : host_(host), options_(options), registry_(registry) {
  if (registry_->size() < host_.process_count()) {
    registry_->resize(host_.process_count());
  }
}

ProcessSnapshot& SnapshotProtocol::my_record() {
  return (*registry_)[host_.self()];
}

void SnapshotProtocol::maybe_trigger() {
  if (host_.self() == 0 && !recorded_ &&
      sends_made_total_ + 1 == options_.trigger_send) {
    record_state_and_send_markers();
  }
}

void SnapshotProtocol::record_state_and_send_markers() {
  recorded_ = true;
  ProcessSnapshot& record = my_record();
  record.recorded = true;
  record.sent_at_cut = sent_;
  record.delivered_at_cut = delivered_;
  // Channels whose marker already arrived have a final (empty-started)
  // state; all others start recording now.
  for (ProcessId p = 0; p < host_.process_count(); ++p) {
    if (p == host_.self()) continue;
    ChannelIn& in = in_[p];
    if (!in.marker_received) {
      in.recording = true;
      record.channel_state[p];  // ensure the (possibly empty) entry
    }
    Packet marker;
    marker.dst = p;
    marker.is_control = true;
    marker.kind = "MARKER";
    codec::put_u32(marker.payload, next_out_seq_[p]++);
    host_.send_packet(std::move(marker));
  }
}

void SnapshotProtocol::on_invoke(const Message& m) {
  maybe_trigger();
  ++sends_made_total_;
  ++sent_[m.dst];
  Packet pkt;
  pkt.dst = m.dst;
  pkt.user_msg = m.id;
  codec::put_u32(pkt.payload, next_out_seq_[m.dst]++);
  host_.send_packet(std::move(pkt));
}

void SnapshotProtocol::accept(ProcessId from, bool is_marker,
                              MessageId msg) {
  ChannelIn& in = in_[from];
  if (is_marker) {
    in.marker_received = true;
    if (!recorded_) {
      // First marker: record with this channel's state empty.
      record_state_and_send_markers();
      in.recording = false;
      my_record().channel_state[from];  // empty entry, final
    } else {
      in.recording = false;  // channel state for `from` is final
    }
    return;
  }
  ++delivered_[from];
  host_.deliver(msg);
  if (recorded_ && in.recording) {
    my_record().channel_state[from].push_back(msg);
  }
}

void SnapshotProtocol::drain(ProcessId from) {
  ChannelIn& in = in_[from];
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = in.buffer.begin(); it != in.buffer.end(); ++it) {
      if (std::get<0>(*it) == in.next_expected) {
        const bool is_marker = std::get<1>(*it);
        const MessageId msg = std::get<2>(*it);
        in.buffer.erase(it);
        ++in.next_expected;
        accept(from, is_marker, msg);
        progressed = true;
        break;
      }
    }
  }
}

void SnapshotProtocol::on_packet(const Packet& packet) {
  const bool is_marker = packet.is_control;
  if (is_marker && packet.kind != "MARKER") return;
  if (!options_.fifo_markers) {
    // No ordering discipline: process in arrival order (the broken
    // variant the experiment contrasts).
    accept(packet.src, is_marker, is_marker ? 0 : packet.user_msg);
    return;
  }
  const std::uint32_t seq = codec::Reader(packet.payload).u32();
  in_[packet.src].buffer.emplace_back(
      seq, is_marker, is_marker ? 0 : packet.user_msg);
  drain(packet.src);
}

ProtocolFactory SnapshotProtocol::factory(Options options,
                                          Registry* registry) {
  return [options, registry](Host& host) {
    return std::make_unique<SnapshotProtocol>(host, options, registry);
  };
}

GlobalSnapshot collect(const SnapshotProtocol::Registry& registry) {
  GlobalSnapshot snapshot;
  snapshot.processes = registry;
  return snapshot;
}

}  // namespace msgorder
