#include "src/checker/monitor.hpp"

#include <algorithm>
#include <chrono>

namespace msgorder {

OnlineMonitor::OnlineMonitor(std::vector<Message> universe,
                             ForbiddenPredicate specification,
                             MonitorSearchMode mode)
    : OnlineMonitor(std::move(universe), std::move(specification),
                    MonitorOptions{mode, 1}) {}

OnlineMonitor::OnlineMonitor(std::vector<Message> universe,
                             ForbiddenPredicate specification,
                             MonitorOptions options)
    : universe_(std::move(universe)),
      spec_(std::move(specification)),
      options_(options),
      mode_(options.mode == MonitorSearchMode::kNaive
                ? MonitorSearchMode::kNaive
                : MonitorSearchMode::kPruned),
      engine_(spec_, universe_),
      ancestors_(2 * universe_.size()),
      descendants_(2 * universe_.size()),
      present_(2 * universe_.size(), false),
      present_send_((universe_.size() + 63) / 64, 0),
      present_deliver_((universe_.size() + 63) / 64, 0),
      assignment_scratch_(spec_.arity, 0),
      used_scratch_(universe_.size(), false) {
  std::size_t n_processes = 0;
  for (const Message& m : universe_) {
    n_processes = std::max({n_processes, static_cast<std::size_t>(m.src) + 1,
                            static_cast<std::size_t>(m.dst) + 1});
  }
  last_event_.assign(n_processes, -1);
}

bool OnlineMonitor::before(UserEvent a, UserEvent b) const {
  return ancestors_.get(index(b.msg, b.kind), index(a.msg, a.kind));
}

bool OnlineMonitor::conjuncts_hold(const std::vector<MessageId>& assignment,
                                   std::size_t bound_upto,
                                   std::size_t pinned_var,
                                   MessageId pinned_msg) const {
  const auto value = [&](std::size_t var) -> std::optional<MessageId> {
    if (var == pinned_var) return pinned_msg;
    if (var < bound_upto) return assignment[var];
    return std::nullopt;
  };
  for (const Conjunct& c : spec_.conjuncts) {
    const auto lhs = value(c.lhs);
    const auto rhs = value(c.rhs);
    if (!lhs || !rhs) continue;
    if (!ancestors_.get(index(*rhs, c.q), index(*lhs, c.p))) return false;
    // Both endpoints must actually have happened.
    if (!present_[index(*lhs, c.p)] || !present_[index(*rhs, c.q)]) {
      return false;
    }
  }
  for (const ProcessEquality& pe : spec_.process_constraints) {
    const auto a = value(pe.var_a);
    const auto b = value(pe.var_b);
    if (!a || !b) continue;
    const Message& ma = universe_[*a];
    const Message& mb = universe_[*b];
    const ProcessId pa =
        pe.kind_a == UserEventKind::kSend ? ma.src : ma.dst;
    const ProcessId pb =
        pe.kind_b == UserEventKind::kSend ? mb.src : mb.dst;
    if (pa != pb) return false;
  }
  for (const ColorConstraint& cc : spec_.color_constraints) {
    const auto v = value(cc.var);
    if (!v) continue;
    if (universe_[*v].color != cc.color) return false;
  }
  return true;
}

bool OnlineMonitor::search_with_pin(std::size_t pinned_var,
                                    MessageId pinned_msg,
                                    std::size_t next_var,
                                    std::vector<MessageId>& assignment,
                                    std::vector<bool>& used) const {
  if (next_var == spec_.arity) return true;
  if (next_var == pinned_var) {
    return search_with_pin(pinned_var, pinned_msg, next_var + 1,
                           assignment, used);
  }
  for (MessageId m = 0; m < universe_.size(); ++m) {
    if (used[m] || m == pinned_msg) continue;
    assignment[next_var] = m;
    if (conjuncts_hold(assignment, next_var + 1, pinned_var, pinned_msg)) {
      used[m] = true;
      if (search_with_pin(pinned_var, pinned_msg, next_var + 1,
                          assignment, used)) {
        return true;
      }
      used[m] = false;
    }
  }
  return false;
}

bool OnlineMonitor::on_event(ProcessId process, SystemEvent event,
                             double time) {
  ++events_seen_;
  if (timing_) {
    const auto start = std::chrono::steady_clock::now();
    const bool fired = on_event_impl(process, event, time);
    on_event_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    ++timed_events_;
    return fired;
  }
  return on_event_impl(process, event, time);
}

bool OnlineMonitor::flush_batch(double time) {
  if (pending_in_batch_ == 0) return false;
  pending_in_batch_ = 0;
  if (spec_.arity == 0 || spec_.arity > universe_.size()) return false;
  // Witnesses are monotone, so one unpinned search over the current
  // view sees any violation the per-event pinned searches would have
  // found during the batch.
  const WitnessEngine::View view{&descendants_, &ancestors_,
                                 present_send_.data(),
                                 present_deliver_.data()};
  if (!engine_.search(view, assignment_scratch_)) return false;
  ++violation_count_;
  if (!first_violation_.has_value()) {
    first_violation_ = assignment_scratch_;
    first_violation_time_ = time;
    events_to_detection_ = events_seen_;
  }
  return true;
}

bool OnlineMonitor::flush() { return flush_batch(last_event_time_); }

void OnlineMonitor::reset() {
  ancestors_.zero_all();
  descendants_.zero_all();
  std::fill(present_.begin(), present_.end(), false);
  std::fill(present_send_.begin(), present_send_.end(), 0);
  std::fill(present_deliver_.begin(), present_deliver_.end(), 0);
  std::fill(last_event_.begin(), last_event_.end(), -1L);
  first_violation_.reset();
  first_violation_time_ = 0;
  violation_count_ = 0;
  events_seen_ = 0;
  events_to_detection_ = 0;
  timed_events_ = 0;
  on_event_seconds_ = 0;
  pending_in_batch_ = 0;
  last_event_time_ = 0;
}

bool OnlineMonitor::on_event_impl(ProcessId process, SystemEvent event,
                                  double time) {
  last_event_time_ = time;
  if (!is_user_kind(event.kind)) return false;
  const UserEventKind kind = to_user_kind(event.kind);
  const std::size_t idx = index(event.msg, kind);
  // Extend the incremental causality: predecessors are the previous user
  // event on this line and, for a delivery, the matching send.
  if (last_event_[process] >= 0) {
    const auto prev = static_cast<std::size_t>(last_event_[process]);
    ancestors_.or_row_into(prev, idx);
    ancestors_.set(idx, prev);
  }
  if (kind == UserEventKind::kDeliver) {
    const std::size_t send = index(event.msg, UserEventKind::kSend);
    ancestors_.or_row_into(send, idx);
    ancestors_.set(idx, send);
  }
  // Mirror the new column into the descendant rows: the new event is a
  // fresh descendant of each of its ancestors (its own row stays empty —
  // a maximal event has no descendants yet).
  ancestors_.for_each_set(
      idx, [&](std::size_t a) { descendants_.set(a, idx); });
  present_[idx] = true;
  if (kind == UserEventKind::kSend) {
    present_send_[event.msg >> 6] |= 1ULL << (event.msg & 63);
  } else {
    present_deliver_[event.msg >> 6] |= 1ULL << (event.msg & 63);
  }
  last_event_[process] = static_cast<long>(idx);

  // A newly completed pattern must bind some variable to this message.
  if (spec_.arity == 0 || spec_.arity > universe_.size()) return false;
  if (mode_ == MonitorSearchMode::kPruned && options_.batch_size > 1) {
    // Batched search: defer the search, run one unpinned
    // re-intersection per batch_size user events.
    if (++pending_in_batch_ < options_.batch_size) return false;
    return flush_batch(time);
  }
  if (mode_ == MonitorSearchMode::kPruned) {
    const WitnessEngine::View view{&descendants_, &ancestors_,
                                   present_send_.data(),
                                   present_deliver_.data()};
    for (std::size_t v = 0; v < spec_.arity; ++v) {
      if (engine_.search_pinned(view, v, event.msg, assignment_scratch_)) {
        ++violation_count_;
        if (!first_violation_.has_value()) {
          first_violation_ = assignment_scratch_;
          first_violation_time_ = time;
          events_to_detection_ = events_seen_;
        }
        return true;
      }
    }
    return false;
  }
  for (std::size_t v = 0; v < spec_.arity; ++v) {
    assignment_scratch_.assign(spec_.arity, 0);
    std::fill(used_scratch_.begin(), used_scratch_.end(), false);
    used_scratch_[event.msg] = true;
    if (!conjuncts_hold(assignment_scratch_, 0, v, event.msg)) continue;
    if (search_with_pin(v, event.msg, 0, assignment_scratch_,
                        used_scratch_)) {
      assignment_scratch_[v] = event.msg;
      ++violation_count_;
      if (!first_violation_.has_value()) {
        first_violation_ = assignment_scratch_;
        first_violation_time_ = time;
        events_to_detection_ = events_seen_;
      }
      return true;
    }
  }
  return false;
}

SimObserver monitor_observer(std::shared_ptr<OnlineMonitor> monitor) {
  return [monitor = std::move(monitor)](ProcessId p, SystemEvent e,
                                        SimTime t) {
    monitor->on_event(p, e, t);
  };
}

}  // namespace msgorder
