#include "src/poset/system_run.hpp"

#include <algorithm>
#include <cassert>

namespace msgorder {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

SystemRun::SystemRun(std::vector<Message> universe, std::size_t n_processes)
    : universe_(std::move(universe)),
      sequences_(n_processes),
      present_(4 * universe_.size(), 0),
      order_(4 * universe_.size()) {
  for (std::size_t i = 0; i < universe_.size(); ++i) {
    assert(universe_[i].id == i && "message ids must be dense");
    assert(universe_[i].src < n_processes && universe_[i].dst < n_processes);
  }
  order_.close();
}

std::optional<SystemRun> SystemRun::from_sequences(
    std::vector<Message> universe,
    std::vector<std::vector<SystemEvent>> sequences, std::string* error) {
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (universe[i].id != i) {
      set_error(error, "message ids must be dense 0..m-1");
      return std::nullopt;
    }
  }
  SystemRun run(std::move(universe), sequences.size());
  run.sequences_ = std::move(sequences);

  // Each event must be at its home process and appear at most once.
  std::vector<int> count(4 * run.universe_.size(), 0);
  for (std::size_t p = 0; p < run.sequences_.size(); ++p) {
    for (const SystemEvent& e : run.sequences_[p]) {
      if (e.msg >= run.universe_.size()) {
        set_error(error, "event references unknown message");
        return std::nullopt;
      }
      if (run.home(e) != p) {
        set_error(error, "event recorded at the wrong process");
        return std::nullopt;
      }
      count[index(e.msg, e.kind)] += 1;
    }
  }
  if (std::any_of(count.begin(), count.end(), [](int c) { return c > 1; })) {
    set_error(error, "duplicate event");
    return std::nullopt;
  }
  for (std::size_t i = 0; i < count.size(); ++i) run.present_[i] = count[i];

  // Condition 3: x.s* -> x.s and x.r* -> x.r (same process, earlier slot).
  // Because each process sequence is scanned in order, it is enough to
  // check presence here and positions via the partial-order check below,
  // after adding the precedence edges.
  for (MessageId m = 0; m < run.universe_.size(); ++m) {
    if (run.present(m, EventKind::kSend) &&
        !run.present(m, EventKind::kInvoke)) {
      set_error(error, "send without invoke");
      return std::nullopt;
    }
    if (run.present(m, EventKind::kDeliver) &&
        !run.present(m, EventKind::kReceive)) {
      set_error(error, "delivery without receive");
      return std::nullopt;
    }
    // Condition 2: no spurious receives.
    if (run.present(m, EventKind::kReceive) &&
        !run.present(m, EventKind::kSend)) {
      set_error(error, "receive without send");
      return std::nullopt;
    }
  }

  run.rebuild_order();
  if (!run.order_.is_partial_order()) {
    set_error(error, "sequences do not form a partial order");
    return std::nullopt;
  }
  // Condition 3 ordering: invoke precedes send, receive precedes deliver.
  for (MessageId m = 0; m < run.universe_.size(); ++m) {
    if (run.present(m, EventKind::kSend) &&
        !run.before({m, EventKind::kInvoke}, {m, EventKind::kSend})) {
      set_error(error, "invoke does not precede send");
      return std::nullopt;
    }
    if (run.present(m, EventKind::kDeliver) &&
        !run.before({m, EventKind::kReceive}, {m, EventKind::kDeliver})) {
      set_error(error, "receive does not precede delivery");
      return std::nullopt;
    }
  }
  return run;
}

std::size_t SystemRun::event_count() const {
  std::size_t n = 0;
  for (const auto& seq : sequences_) n += seq.size();
  return n;
}

ProcessId SystemRun::home(SystemEvent e) const {
  const Message& m = universe_[e.msg];
  return (e.kind == EventKind::kInvoke || e.kind == EventKind::kSend)
             ? m.src
             : m.dst;
}

std::vector<SystemEvent> SystemRun::pending_invokes(ProcessId i) const {
  std::vector<SystemEvent> out;
  for (const Message& m : universe_) {
    if (m.src == i && !present(m.id, EventKind::kInvoke)) {
      out.push_back({m.id, EventKind::kInvoke});
    }
  }
  return out;
}

std::vector<SystemEvent> SystemRun::pending_sends(ProcessId i) const {
  std::vector<SystemEvent> out;
  for (const Message& m : universe_) {
    if (m.src == i && present(m.id, EventKind::kInvoke) &&
        !present(m.id, EventKind::kSend)) {
      out.push_back({m.id, EventKind::kSend});
    }
  }
  return out;
}

std::vector<SystemEvent> SystemRun::pending_receives(ProcessId i) const {
  std::vector<SystemEvent> out;
  for (const Message& m : universe_) {
    if (m.dst == i && present(m.id, EventKind::kSend) &&
        !present(m.id, EventKind::kReceive)) {
      out.push_back({m.id, EventKind::kReceive});
    }
  }
  return out;
}

std::vector<SystemEvent> SystemRun::pending_deliveries(ProcessId i) const {
  std::vector<SystemEvent> out;
  for (const Message& m : universe_) {
    if (m.dst == i && present(m.id, EventKind::kReceive) &&
        !present(m.id, EventKind::kDeliver)) {
      out.push_back({m.id, EventKind::kDeliver});
    }
  }
  return out;
}

std::vector<SystemEvent> SystemRun::controllable(ProcessId i) const {
  std::vector<SystemEvent> out = pending_sends(i);
  const std::vector<SystemEvent> d = pending_deliveries(i);
  out.insert(out.end(), d.begin(), d.end());
  return out;
}

bool SystemRun::quiescent() const {
  for (ProcessId i = 0; i < sequences_.size(); ++i) {
    if (!pending_sends(i).empty() || !pending_receives(i).empty() ||
        !pending_deliveries(i).empty()) {
      return false;
    }
  }
  return true;
}

bool SystemRun::can_execute(SystemEvent e) const {
  if (e.msg >= universe_.size() || present(e)) return false;
  switch (e.kind) {
    case EventKind::kInvoke:
      return true;
    case EventKind::kSend:
      return present(e.msg, EventKind::kInvoke);
    case EventKind::kReceive:
      return present(e.msg, EventKind::kSend);
    case EventKind::kDeliver:
      return present(e.msg, EventKind::kReceive);
  }
  return false;
}

SystemRun SystemRun::executed(SystemEvent e) const {
  assert(can_execute(e));
  SystemRun next = *this;
  next.sequences_[home(e)].push_back(e);
  next.present_[index(e.msg, e.kind)] = 1;
  next.rebuild_order();
  return next;
}

std::optional<SystemRun> SystemRun::prefix(
    const std::vector<std::size_t>& lengths) const {
  if (lengths.size() != sequences_.size()) return std::nullopt;
  std::vector<std::vector<SystemEvent>> cut(sequences_.size());
  for (std::size_t p = 0; p < sequences_.size(); ++p) {
    if (lengths[p] > sequences_[p].size()) return std::nullopt;
    cut[p].assign(sequences_[p].begin(),
                  sequences_[p].begin() + static_cast<long>(lengths[p]));
  }
  return from_sequences(universe_, std::move(cut));
}

SystemRun SystemRun::causal_past(ProcessId i) const {
  std::vector<std::size_t> lengths(sequences_.size(), 0);
  lengths[i] = sequences_[i].size();
  for (std::size_t j = 0; j < sequences_.size(); ++j) {
    if (j == i) continue;
    // The set {g in H_j : exists h in H_i with g -> h} is a prefix of H_j
    // because -> contains the process order of H_j.
    std::size_t keep = 0;
    for (std::size_t k = 0; k < sequences_[j].size(); ++k) {
      const SystemEvent& g = sequences_[j][k];
      bool reaches_i = false;
      for (const SystemEvent& h : sequences_[i]) {
        if (before(g, h)) {
          reaches_i = true;
          break;
        }
      }
      if (reaches_i) {
        keep = k + 1;
      } else {
        break;  // later events of H_j cannot reach H_i either
      }
    }
    lengths[j] = keep;
  }
  auto cut = prefix(lengths);
  assert(cut.has_value() && "causal past of a run is a run");
  return *cut;
}

bool SystemRun::user_complete() const {
  for (const Message& m : universe_) {
    if (present(m.id, EventKind::kSend) !=
        present(m.id, EventKind::kDeliver)) {
      return false;
    }
  }
  return true;
}

std::optional<UserRun> SystemRun::users_view() const {
  if (!user_complete()) return std::nullopt;
  // Keep only messages that were actually sent, with dense renumbering.
  std::vector<MessageId> remap(universe_.size(), 0);
  std::vector<Message> kept;
  for (const Message& m : universe_) {
    if (present(m.id, EventKind::kSend)) {
      remap[m.id] = static_cast<MessageId>(kept.size());
      Message copy = m;
      copy.id = remap[m.id];
      kept.push_back(copy);
    }
  }
  std::vector<std::vector<ScheduleStep>> schedules(sequences_.size());
  for (std::size_t p = 0; p < sequences_.size(); ++p) {
    for (const SystemEvent& e : sequences_[p]) {
      if (is_user_kind(e.kind)) {
        schedules[p].push_back({remap[e.msg], to_user_kind(e.kind)});
      }
    }
  }
  return UserRun::from_schedules(std::move(kept), std::move(schedules));
}

std::string SystemRun::key() const {
  std::string out;
  for (const auto& seq : sequences_) {
    for (const SystemEvent& e : seq) {
      out += std::to_string(e.msg);
      out += kind_name(e.kind);
      out += ',';
    }
    out += '|';
  }
  return out;
}

std::string SystemRun::to_string() const {
  std::string out;
  for (std::size_t p = 0; p < sequences_.size(); ++p) {
    out += "P";
    out += std::to_string(p);
    out += ":";
    for (const SystemEvent& e : sequences_[p]) {
      out += " ";
      out += msgorder::to_string(e);
    }
    out += "\n";
  }
  return out;
}

void SystemRun::rebuild_order() {
  order_ = Poset(4 * universe_.size());
  for (const auto& seq : sequences_) {
    for (std::size_t k = 0; k + 1 < seq.size(); ++k) {
      order_.add_edge(index(seq[k].msg, seq[k].kind),
                      index(seq[k + 1].msg, seq[k + 1].kind));
    }
  }
  for (MessageId m = 0; m < universe_.size(); ++m) {
    if (present(m, EventKind::kSend) && present(m, EventKind::kReceive)) {
      order_.add_edge(index(m, EventKind::kSend),
                      index(m, EventKind::kReceive));
    }
  }
  order_.close();
}

}  // namespace msgorder
