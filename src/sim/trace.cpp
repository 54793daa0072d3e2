#include "src/sim/trace.hpp"

namespace msgorder {

void Trace::record(ProcessId p, SystemEvent e, SimTime t) {
  record_shard_local(p, e, t);
  if (e.kind == EventKind::kInvoke) {
    ++invoked_;
  } else if (e.kind == EventKind::kDeliver) {
    ++delivered_;
  }
}

void Trace::record_shard_local(ProcessId p, SystemEvent e, SimTime t) {
  logs_[p].push_back({e, t});
  MessageTimes& mt = times_[e.msg];
  switch (e.kind) {
    case EventKind::kInvoke:
      mt.invoke = t;
      break;
    case EventKind::kSend:
      mt.send = t;
      break;
    case EventKind::kReceive:
      mt.receive = t;
      break;
    case EventKind::kDeliver:
      mt.deliver = t;
      break;
  }
}

void Trace::add_counts(const TraceCounts& counts) {
  invoked_ += counts.invoked;
  delivered_ += counts.delivered;
  control_packets_ += counts.control_packets;
  user_packets_ += counts.user_packets;
  control_bytes_ += counts.control_bytes;
  tag_bytes_ += counts.tag_bytes;
  drops_ += counts.drops;
  retransmissions_ += counts.retransmissions;
  duplicate_arrivals_ += counts.duplicate_arrivals;
}

void Trace::unrecord(ProcessId p) {
  const SystemEvent e = logs_[p].back().event;
  logs_[p].pop_back();
  MessageTimes& mt = times_[e.msg];
  switch (e.kind) {
    case EventKind::kInvoke:
      mt.invoke.reset();
      --invoked_;
      break;
    case EventKind::kSend:
      mt.send.reset();
      break;
    case EventKind::kReceive:
      mt.receive.reset();
      break;
    case EventKind::kDeliver:
      mt.deliver.reset();
      --delivered_;
      break;
  }
}

TraceCounts Trace::counts() const {
  return {invoked_,     delivered_,   control_packets_,
          user_packets_, control_bytes_, tag_bytes_,
          drops_,       retransmissions_, duplicate_arrivals_};
}

void Trace::set_counts(const TraceCounts& counts) {
  invoked_ = counts.invoked;
  delivered_ = counts.delivered;
  control_packets_ = counts.control_packets;
  user_packets_ = counts.user_packets;
  control_bytes_ = counts.control_bytes;
  tag_bytes_ = counts.tag_bytes;
  drops_ = counts.drops;
  retransmissions_ = counts.retransmissions;
  duplicate_arrivals_ = counts.duplicate_arrivals;
}

void Trace::count_control_packet(std::size_t bytes) {
  ++control_packets_;
  control_bytes_ += bytes;
}

void Trace::count_user_packet(std::size_t tag_bytes) {
  ++user_packets_;
  tag_bytes_ += tag_bytes;
}

double Trace::control_packets_per_message() const {
  if (user_packets_ == 0) return 0;
  return static_cast<double>(control_packets_) /
         static_cast<double>(user_packets_);
}

double Trace::mean_tag_bytes() const {
  if (user_packets_ == 0) return 0;
  return static_cast<double>(tag_bytes_) /
         static_cast<double>(user_packets_);
}

double Trace::mean_latency() const {
  double total = 0;
  std::size_t count = 0;
  for (const MessageTimes& mt : times_) {
    if (mt.complete()) {
      total += mt.latency();
      ++count;
    }
  }
  return count ? total / static_cast<double>(count) : 0;
}

double Trace::mean_delivery_delay() const {
  double total = 0;
  std::size_t count = 0;
  for (const MessageTimes& mt : times_) {
    if (mt.complete()) {
      total += mt.delivery_delay();
      ++count;
    }
  }
  return count ? total / static_cast<double>(count) : 0;
}

double Trace::max_latency() const {
  double worst = 0;
  for (const MessageTimes& mt : times_) {
    if (mt.complete() && mt.latency() > worst) worst = mt.latency();
  }
  return worst;
}

std::optional<SystemRun> Trace::to_system_run(std::string* error) const {
  std::vector<std::vector<SystemEvent>> sequences(logs_.size());
  for (std::size_t p = 0; p < logs_.size(); ++p) {
    sequences[p].reserve(logs_[p].size());
    for (const TimedEvent& te : logs_[p]) {
      sequences[p].push_back(te.event);
    }
  }
  return SystemRun::from_sequences(universe_, std::move(sequences), error);
}

std::optional<UserRun> Trace::to_user_run(std::string* error) const {
  const auto system = to_system_run(error);
  if (!system.has_value()) return std::nullopt;
  auto user = system->users_view();
  if (!user.has_value() && error != nullptr) {
    *error = "trace is not user-complete (some message not delivered)";
  }
  return user;
}

}  // namespace msgorder
