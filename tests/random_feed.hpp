// Shared helper for checker tests: a random message population plus a
// causally consistent global interleaving of its send/deliver system
// events, usable both as a monitor feed and as a scheduled UserRun.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/poset/user_run.hpp"
#include "src/util/rng.hpp"

namespace msgorder {

/// User events only, so detection-latency arithmetic is exact.
struct Feed {
  std::vector<Message> messages;
  std::vector<std::tuple<ProcessId, SystemEvent, double>> events;

  /// The same execution as a scheduled UserRun.
  UserRun to_run() const {
    std::size_t n_processes = 0;
    for (const Message& m : messages) {
      n_processes = std::max({n_processes,
                              static_cast<std::size_t>(m.src) + 1,
                              static_cast<std::size_t>(m.dst) + 1});
    }
    std::vector<std::vector<ScheduleStep>> schedules(n_processes);
    for (const auto& [process, event, time] : events) {
      schedules[process].push_back(
          ScheduleStep{event.msg, to_user_kind(event.kind)});
    }
    auto run = UserRun::from_schedules(messages, std::move(schedules));
    EXPECT_TRUE(run.has_value());
    return *run;
  }
};

/// Messages get random (src != dst) endpoints and colors drawn from
/// `palette` (all 0 when empty); each step sends a fresh message with
/// probability `send_bias` (always when nothing is in flight), else
/// delivers a random in-flight one.
inline Feed random_feed(Rng& rng, std::size_t n_processes,
                        std::size_t n_messages,
                        const std::vector<int>& palette,
                        double send_bias = 0.55) {
  Feed feed;
  for (MessageId id = 0; id < n_messages; ++id) {
    const auto src = static_cast<ProcessId>(rng.below(n_processes));
    auto dst = static_cast<ProcessId>(rng.below(n_processes - 1));
    if (dst >= src) ++dst;
    const int color =
        palette.empty()
            ? 0
            : palette[static_cast<std::size_t>(rng.below(palette.size()))];
    feed.messages.push_back(Message{id, src, dst, color});
  }
  std::vector<MessageId> unsent;
  std::vector<MessageId> in_flight;
  for (MessageId id = 0; id < n_messages; ++id) unsent.push_back(id);
  double time = 0;
  while (!unsent.empty() || !in_flight.empty()) {
    const bool send_next =
        !unsent.empty() && (in_flight.empty() || rng.uniform01() < send_bias);
    if (send_next) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.below(unsent.size()));
      const MessageId m = unsent[pick];
      unsent.erase(unsent.begin() + static_cast<long>(pick));
      feed.events.emplace_back(feed.messages[m].src,
                               SystemEvent{m, EventKind::kSend}, time);
      in_flight.push_back(m);
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.below(in_flight.size()));
      const MessageId m = in_flight[pick];
      in_flight.erase(in_flight.begin() + static_cast<long>(pick));
      feed.events.emplace_back(feed.messages[m].dst,
                               SystemEvent{m, EventKind::kDeliver}, time);
    }
    time += 1.0;
  }
  return feed;
}

}  // namespace msgorder
