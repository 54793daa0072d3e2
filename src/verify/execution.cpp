#include "src/verify/execution.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "src/protocols/state_codec.hpp"
#include "src/sim/engine_detail.hpp"

namespace msgorder {

std::string to_string(const VerifyAction& action) {
  std::ostringstream out;
  switch (action.kind) {
    case VerifyAction::Kind::kInvoke:
      out << "invoke(x" << action.id << " at p" << action.proc << ")";
      break;
    case VerifyAction::Kind::kDeliver:
      out << "deliver(p" << action.peer << "->p" << action.proc << " uid "
          << action.id << ")";
      break;
    case VerifyAction::Kind::kDrop:
      out << "drop(p" << action.peer << "->p" << action.proc << " uid "
          << action.id << ")";
      break;
    case VerifyAction::Kind::kTimer:
      out << "timer(p" << action.proc << " cookie " << action.id << ")";
      break;
  }
  return out.str();
}

/// The Host facade for one process of a controlled execution.
class Execution::ProcHost final : public Host {
 public:
  ProcHost(Execution* exec, ProcessId self) : exec_(exec), self_(self) {}

  void send_packet(Packet packet) override {
    exec_->send_from(self_, std::move(packet));
  }
  void deliver(MessageId msg) override {
    exec_->record(self_, {msg, EventKind::kDeliver});
  }
  void set_timer(SimTime delay, std::uint64_t cookie) override {
    (void)delay;  // timers fire only when the system is otherwise idle
    auto& timers = exec_->timers_;
    const std::pair<ProcessId, std::uint64_t> timer{self_, cookie};
    const auto it = std::lower_bound(timers.begin(), timers.end(), timer);
    if (it == timers.end() || *it != timer) {
      timers.insert(it, timer);
      exec_->timers_dirty_ = true;
    }
  }
  void hold(MessageId msg, const HoldReason& reason) override {
    exec_->on_hold(self_, msg, reason);
  }
  bool wants_hold_reasons() const override { return true; }
  SimTime now() const override { return exec_->now(); }
  ProcessId self() const override { return self_; }
  std::size_t process_count() const override {
    return exec_->scenario_->n_processes;
  }
  const Message& message(MessageId msg) const override {
    return exec_->scenario_->messages[msg];
  }

 private:
  Execution* exec_;
  ProcessId self_;
};

Execution::Execution(const Scenario& scenario,
                     const ProtocolFactory& factory, ChannelModel model,
                     std::size_t max_drops)
    : scenario_(&scenario),
      factory_(factory),
      model_(model),
      max_drops_(model == ChannelModel::kLossy ? max_drops : 0),
      channels_(scenario.n_processes * scenario.n_processes),
      histories_(scenario.n_processes),
      blank_trace_(scenario.messages, scenario.n_processes),
      blank_attribution_(scenario.messages.size()),
      trace_(blank_trace_),
      attribution_(blank_attribution_) {
  const std::size_t n = scenario.n_processes;
  // Sized once; reset() marks every component dirty.
  key_.resize(3 * n + n * n + 2);
  host_dirty_.resize(n);
  channel_dirty_.resize(n * n);
  history_keyed_.resize(n);
  invoke_order_.resize(n);
  for (const Message& m : scenario.messages) {
    invoke_order_[m.src].push_back(m.id);
  }
  hosts_.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    hosts_.push_back(std::make_unique<ProcHost>(this, p));
  }
  reset();
}

Execution::~Execution() = default;

void Execution::reset() {
  const std::size_t n = scenario_->n_processes;
  const std::size_t m = scenario_->messages.size();
  for (auto& queue : channels_) queue.clear();
  for (auto& history : histories_) history.clear();
  timers_.clear();
  next_invoke_.assign(n, 0);
  send_seen_.assign(m, 0);
  receive_seen_.assign(m, 0);
  trace_ = blank_trace_;
  attribution_ = blank_attribution_;
  delivered_count_ = 0;
  drops_used_ = 0;
  step_ = 0;
  next_uid_ = 0;
  invalidate_key();
  // Bookkeeping first: protocol constructors may already send (the
  // token ring starts circulating from its constructor).
  protocols_.clear();
  for (ProcessId p = 0; p < n; ++p) {
    protocols_.push_back(factory_(*hosts_[p]));
  }
}

void Execution::replay(const std::vector<VerifyAction>& schedule) {
  reset();
  for (const VerifyAction& action : schedule) apply(action);
}

void Execution::record(ProcessId at, SystemEvent e) {
  trace_.record(at, e, now());
  if (e.kind == EventKind::kSend || e.kind == EventKind::kDeliver) {
    histories_[at].push_back(
        {e.msg, e.kind == EventKind::kSend ? UserEventKind::kSend
                                           : UserEventKind::kDeliver});
  }
  // Mirror the simulator's ObsSink release contract exactly: the send
  // event closes the send-phase hold, the delivery the delivery-phase.
  if (e.kind == EventKind::kSend) {
    attribution_.on_release(e.msg, HoldPhase::kSend, now());
  } else if (e.kind == EventKind::kDeliver) {
    attribution_.on_release(e.msg, HoldPhase::kDelivery, now());
    ++delivered_count_;
  }
  if (tracelog_ != nullptr) {
    TraceLogRecord rec;
    set_event_record(rec, scenario_->messages[e.msg], at, e, now(),
                     static_cast<std::uint64_t>(step_));
    tracelog_->append(rec);
  }
}

void Execution::on_hold(ProcessId at, MessageId msg,
                        const HoldReason& reason) {
  const HoldPhase phase =
      receive_seen_[msg] != 0 ? HoldPhase::kDelivery : HoldPhase::kSend;
  attribution_.on_hold(msg, at, phase, reason, now());
  if (tracelog_ != nullptr) {
    TraceLogRecord rec;
    set_hold_record(rec, at, msg, reason, now(),
                    static_cast<std::uint64_t>(step_));
    tracelog_->append(rec);
  }
}

void Execution::send_from(ProcessId from, Packet packet) {
  packet.src = from;
  assert(packet.dst < scenario_->n_processes);
  switch (sim_detail::classify_send(packet, send_seen_)) {
    case sim_detail::SendClass::kControl:
      break;
    case sim_detail::SendClass::kFirstSend:
      record(from, {packet.user_msg, EventKind::kSend});
      break;
    case sim_detail::SendClass::kRetransmission:
      trace_.count_retransmission();
      break;
  }
  const ProcessId dst = packet.dst;
  channel_dirty_[channel_index(from, dst)] = 1;
  channel(from, dst).push_back({std::move(packet), next_uid_++});
}

void Execution::apply(const VerifyAction& action) {
  switch (action.kind) {
    case VerifyAction::Kind::kInvoke: {
      const auto msg = static_cast<MessageId>(action.id);
      const Message& m = scenario_->messages[msg];
      assert(m.src == action.proc);
      assert(next_invoke_[m.src] < invoke_order_[m.src].size() &&
             invoke_order_[m.src][next_invoke_[m.src]] == msg);
      ++next_invoke_[m.src];
      host_dirty_[m.src] = 1;
      record(m.src, {msg, EventKind::kInvoke});
      protocols_[m.src]->on_invoke(m);
      break;
    }
    case VerifyAction::Kind::kDeliver:
    case VerifyAction::Kind::kDrop: {
      auto& queue = channel(action.peer, action.proc);
      auto it = std::find_if(queue.begin(), queue.end(),
                             [&](const InFlight& f) {
                               return f.uid == action.id;
                             });
      assert(it != queue.end() && "scheduled packet not in flight");
      Packet pkt = std::move(it->packet);
      queue.erase(it);
      channel_dirty_[channel_index(action.peer, action.proc)] = 1;
      if (action.kind == VerifyAction::Kind::kDrop) {
        ++drops_used_;
        trace_.count_drop();
        break;
      }
      host_dirty_[action.proc] = 1;
      sim_detail::apply_arrival(
          *protocols_[action.proc], pkt, receive_seen_,
          [&](sim_detail::ArrivalClass cls) {
            switch (cls) {
              case sim_detail::ArrivalClass::kControl:
                trace_.count_control_packet(pkt.payload.size());
                break;
              case sim_detail::ArrivalClass::kFirstUser:
                trace_.count_user_packet(pkt.payload.size());
                record(action.proc, {pkt.user_msg, EventKind::kReceive});
                break;
              case sim_detail::ArrivalClass::kDuplicate:
                trace_.count_duplicate_arrival();
                break;
            }
          });
      break;
    }
    case VerifyAction::Kind::kTimer: {
      const auto it =
          std::find(timers_.begin(), timers_.end(),
                    std::make_pair(action.proc, action.id));
      if (it != timers_.end()) timers_.erase(it);
      timers_dirty_ = true;
      host_dirty_[action.proc] = 1;
      protocols_[action.proc]->on_timer(action.id);
      break;
    }
  }
  ++step_;
}

void Execution::enabled(std::vector<VerifyAction>& actions) const {
  actions.clear();
  for (ProcessId p = 0; p < scenario_->n_processes; ++p) {
    if (next_invoke_[p] < invoke_order_[p].size()) {
      actions.push_back({VerifyAction::Kind::kInvoke, p, 0,
                         invoke_order_[p][next_invoke_[p]]});
    }
  }
  const std::size_t n = scenario_->n_processes;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const auto& queue = channels_[c];
    if (queue.empty()) continue;
    const auto src = static_cast<ProcessId>(c / n);
    const auto dst = static_cast<ProcessId>(c % n);
    if (model_ == ChannelModel::kFifo) {
      actions.push_back(
          {VerifyAction::Kind::kDeliver, dst, src, queue.front().uid});
    } else {
      for (const InFlight& f : queue) {
        actions.push_back({VerifyAction::Kind::kDeliver, dst, src, f.uid});
      }
    }
  }
  if (model_ == ChannelModel::kLossy && drops_used_ < max_drops_) {
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      const auto src = static_cast<ProcessId>(c / n);
      const auto dst = static_cast<ProcessId>(c % n);
      for (const InFlight& f : channels_[c]) {
        actions.push_back({VerifyAction::Kind::kDrop, dst, src, f.uid});
      }
    }
  }
  if (actions.empty()) {
    // Timer abstraction: timeouts fire only once the system is
    // otherwise idle (registry timers are retransmission timeouts, and
    // a retransmission is only ever *needed* after drops starved the
    // run).  This also keeps timer chatter from exploding the state
    // space with schedules no property depends on.
    for (const auto& [p, cookie] : timers_) {
      actions.push_back({VerifyAction::Kind::kTimer, p, 0, cookie});
    }
  }
}

bool Execution::protocols_quiescent() const {
  for (const auto& protocol : protocols_) {
    if (!protocol->quiescent()) return false;
  }
  return true;
}

bool Execution::user_packets_in_flight() const {
  for (const auto& queue : channels_) {
    for (const InFlight& f : queue) {
      if (!f.packet.is_control) return true;
    }
  }
  return false;
}

void Execution::invalidate_key() {
  std::fill(host_dirty_.begin(), host_dirty_.end(), 1);
  std::fill(channel_dirty_.begin(), channel_dirty_.end(), 1);
  for (auto& queue : channels_) {
    for (InFlight& f : queue) f.id = kUnkeyed;
  }
  timers_dirty_ = true;
  const std::size_t n = scenario_->n_processes;
  std::fill(key_.begin() + n, key_.begin() + 2 * n, 0);
  std::fill(history_keyed_.begin(), history_keyed_.end(), 0);
}

void Execution::restore_key(std::span<const std::uint32_t> key) {
  assert(key.size() == key_.size());
  std::copy(key.begin(), key.end(), key_.begin());
  std::fill(host_dirty_.begin(), host_dirty_.end(), 0);
  std::fill(channel_dirty_.begin(), channel_dirty_.end(), 0);
  timers_dirty_ = false;
  for (ProcessId p = 0; p < scenario_->n_processes; ++p) {
    history_keyed_[p] = histories_[p].size();
  }
}

void Execution::key_histories() {
  const std::size_t n = scenario_->n_processes;
  for (ProcessId p = 0; p < n; ++p) {
    const std::vector<ScheduleStep>& history = histories_[p];
    std::uint32_t& id = key_[n + p];
    for (std::size_t& k = history_keyed_[p]; k < history.size(); ++k) {
      // Trie edge (parent, step); id 0 is the empty history.
      const std::uint32_t edge[3] = {
          id, history[k].msg,
          history[k].kind == UserEventKind::kSend ? 0u : 1u};
      id = history_trie_.intern(edge) + 1;
      ++reinterned_;
    }
  }
}

std::uint32_t Execution::key_channel(std::size_t c) {
  std::vector<InFlight>& queue = channels_[c];
  if (queue.empty()) return 0;  // drained channels are not state
  words_.clear();
  for (InFlight& f : queue) {
    if (f.id == kUnkeyed) {
      // Content identity, never the emission uid: the same state
      // reached with different emission histories must coincide, or
      // idle control cycles would never close.
      const Packet& pkt = f.packet;
      bytes_.clear();
      codec::put_u8(bytes_, pkt.is_control ? 1 : 0);
      codec::put_str(bytes_, pkt.kind);
      codec::put_u32(bytes_, pkt.user_msg);
      bytes_.append(pkt.payload);
      f.id = packet_ids_.intern(bytes_);
    }
    words_.push_back(f.id);
  }
  if (model_ != ChannelModel::kFifo) {
    // Queue order is invisible to a reordering channel: canonicalize
    // to the sorted multiset.
    std::sort(words_.begin(), words_.end());
  }
  return channel_ids_.intern(words_) + 1;
}

std::uint32_t Execution::key_timers() {
  if (timers_.empty()) return 0;
  bytes_.clear();
  for (const auto& [p, cookie] : timers_) {
    codec::put_u32(bytes_, p);
    codec::put_u64(bytes_, cookie);
  }
  return timer_ids_.intern(bytes_) + 1;
}

std::span<const std::uint32_t> Execution::history_ids() {
  key_histories();
  const std::size_t n = scenario_->n_processes;
  return std::span<const std::uint32_t>(key_).subspan(n, n);
}

bool Execution::state_key(std::span<const std::uint32_t>* out) {
  const std::size_t n = scenario_->n_processes;
  for (ProcessId p = 0; p < n; ++p) {
    if (host_dirty_[p] == 0) continue;
    bytes_.clear();
    if (!protocols_[p]->snapshot(bytes_)) return false;
    key_[p] = host_ids_.intern(bytes_);
    host_dirty_[p] = 0;
    ++reinterned_;
  }
  key_histories();
  for (ProcessId p = 0; p < n; ++p) {
    key_[2 * n + p] = static_cast<std::uint32_t>(next_invoke_[p]);
  }
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (channel_dirty_[c] == 0) continue;
    key_[3 * n + c] = key_channel(c);
    channel_dirty_[c] = 0;
    ++reinterned_;
  }
  if (timers_dirty_) {
    key_[3 * n + n * n] = key_timers();
    timers_dirty_ = false;
    ++reinterned_;
  }
  key_[3 * n + n * n + 1] = static_cast<std::uint32_t>(drops_used_);
  *out = key_;
  return true;
}

Execution::KeyStats Execution::key_stats() const {
  return {host_ids_.size(), channel_ids_.size(), packet_ids_.size(),
          history_trie_.size(), reinterned_};
}

std::optional<UserRun> Execution::user_run(std::string* error) const {
  return UserRun::from_schedules(scenario_->messages, histories_, error);
}

}  // namespace msgorder
