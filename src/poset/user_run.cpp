#include "src/poset/user_run.hpp"

#include <algorithm>

namespace msgorder {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::optional<UserRun> UserRun::from_schedules(
    std::vector<Message> messages,
    std::vector<std::vector<ScheduleStep>> schedules, std::string* error) {
  // Validate identity: messages_[i].id == i keeps indexing dense.
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (messages[i].id != i) {
      set_error(error, "message ids must be dense 0..m-1");
      return std::nullopt;
    }
  }
  // Each event must appear exactly once, at the right process.
  std::vector<int> seen(2 * messages.size(), 0);
  for (std::size_t p = 0; p < schedules.size(); ++p) {
    for (const ScheduleStep& step : schedules[p]) {
      if (step.msg >= messages.size()) {
        set_error(error, "schedule references unknown message");
        return std::nullopt;
      }
      const Message& m = messages[step.msg];
      const ProcessId home =
          step.kind == UserEventKind::kSend ? m.src : m.dst;
      if (home != p) {
        set_error(error, "event scheduled at the wrong process");
        return std::nullopt;
      }
      seen[index(step.msg, step.kind)] += 1;
    }
  }
  if (std::any_of(seen.begin(), seen.end(), [](int c) { return c != 1; })) {
    set_error(error, "every send and delivery must appear exactly once");
    return std::nullopt;
  }

  UserRun run;
  run.messages_ = std::move(messages);
  run.order_ = Poset(2 * run.messages_.size());
  for (const auto& schedule : schedules) {
    for (std::size_t i = 0; i + 1 < schedule.size(); ++i) {
      run.order_.add_edge(index(schedule[i].msg, schedule[i].kind),
                          index(schedule[i + 1].msg, schedule[i + 1].kind));
    }
  }
  for (MessageId m = 0; m < run.messages_.size(); ++m) {
    run.order_.add_edge(index(m, UserEventKind::kSend),
                        index(m, UserEventKind::kDeliver));
  }
  run.order_.close();
  if (!run.order_.is_partial_order()) {
    // A message delivered before it was sent on the same process line.
    set_error(error, "schedules violate causality (delivery before send)");
    return std::nullopt;
  }
  run.schedules_ = std::move(schedules);
  return run;
}

std::optional<UserRun> UserRun::from_edges(
    std::vector<Message> messages,
    const std::vector<std::pair<UserEvent, UserEvent>>& edges,
    std::string* error) {
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (messages[i].id != i) {
      set_error(error, "message ids must be dense 0..m-1");
      return std::nullopt;
    }
  }
  UserRun run;
  run.messages_ = std::move(messages);
  run.order_ = Poset(2 * run.messages_.size());
  for (const auto& [from, to] : edges) {
    if (from.msg >= run.messages_.size() || to.msg >= run.messages_.size()) {
      set_error(error, "edge references unknown message");
      return std::nullopt;
    }
    run.order_.add_edge(index(from.msg, from.kind), index(to.msg, to.kind));
  }
  for (MessageId m = 0; m < run.messages_.size(); ++m) {
    run.order_.add_edge(index(m, UserEventKind::kSend),
                        index(m, UserEventKind::kDeliver));
  }
  run.order_.close();
  if (!run.order_.is_partial_order()) {
    set_error(error, "edges do not form a partial order");
    return std::nullopt;
  }
  return run;
}

std::size_t UserRun::process_count() const {
  std::size_t n = schedules_.size();
  for (const Message& m : messages_) {
    n = std::max({n, static_cast<std::size_t>(m.src) + 1,
                  static_cast<std::size_t>(m.dst) + 1});
  }
  return n;
}

std::string UserRun::to_string() const {
  std::string out;
  if (has_schedules()) {
    for (std::size_t p = 0; p < schedules_.size(); ++p) {
      out += "P";
      out += std::to_string(p);
      out += ":";
      for (const ScheduleStep& step : schedules_[p]) {
        out += " ";
        out += msgorder::to_string(UserEvent{step.msg, step.kind});
      }
      out += "\n";
    }
  } else {
    out += "abstract run over " + std::to_string(message_count()) +
           " messages; pairs:\n";
    for (const auto& [u, v] : order_.pairs()) {
      out += "  " + msgorder::to_string(event_of_index(u)) + " |> " +
             msgorder::to_string(event_of_index(v)) + "\n";
    }
  }
  return out;
}

}  // namespace msgorder
