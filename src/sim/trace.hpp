// Execution trace: the timestamped per-process event log a simulation
// produces, convertible to the paper's SystemRun (system view) and
// UserRun (user view), plus the overhead statistics of bench E2.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/poset/system_run.hpp"
#include "src/poset/user_run.hpp"
#include "src/protocols/protocol.hpp"

namespace msgorder {

struct TimedEvent {
  SystemEvent event;
  SimTime time = 0;
};

/// The four lifecycle timestamps of a message (empty until the event
/// occurs — a message that was never invoked or is still in flight has
/// no latency, and asking for one is a programming error, enforced by
/// assert rather than the silent garbage the old -1 sentinels produced).
struct MessageTimes {
  std::optional<SimTime> invoke;
  std::optional<SimTime> send;
  std::optional<SimTime> receive;
  std::optional<SimTime> deliver;

  bool operator==(const MessageTimes&) const = default;

  bool complete() const { return deliver.has_value(); }
  /// End-to-end latency as the user perceives it.  Requires complete().
  SimTime latency() const {
    assert(invoke && deliver);
    return *deliver - *invoke;
  }
  /// Time the protocol held the message at the sender (x.s* to x.s).
  SimTime send_delay() const {
    assert(invoke && send);
    return *send - *invoke;
  }
  /// Time the protocol buffered the message at the receiver (x.r* to x.r).
  SimTime delivery_delay() const {
    assert(receive && deliver);
    return *deliver - *receive;
  }
};

/// Aggregate counter block for merge-at-report recording: the simulator
/// accumulates these per shard in plain structs and folds them into the
/// Trace once, after the run, instead of bumping shared Trace counters
/// from worker threads.
struct TraceCounts {
  std::size_t invoked = 0;
  std::size_t delivered = 0;
  std::size_t control_packets = 0;
  std::size_t user_packets = 0;
  std::size_t control_bytes = 0;
  std::size_t tag_bytes = 0;
  std::size_t drops = 0;
  std::size_t retransmissions = 0;
  std::size_t duplicate_arrivals = 0;
};

class Trace {
 public:
  Trace(std::vector<Message> universe, std::size_t n_processes)
      : universe_(std::move(universe)),
        logs_(n_processes),
        times_(universe_.size()) {}

  void record(ProcessId p, SystemEvent e, SimTime t);

  /// Shard-confined variant of record(): appends to logs_[p] and fills
  /// times_[e.msg] but touches no cross-process counters, so concurrent
  /// calls are race-free as long as each process (and each message's
  /// sender/receiver side) is handled by exactly one thread.  The owning
  /// engine accounts invokes/delivers in its TraceCounts and merges with
  /// add_counts() after the run.
  void record_shard_local(ProcessId p, SystemEvent e, SimTime t);

  /// Fold a per-shard counter block into the trace-wide totals.
  void add_counts(const TraceCounts& counts);

  /// Step-back support for the exhaustive verifier, which walks one
  /// path and backtracks along it.  unrecord(p) undoes the newest
  /// record() at `p`: its log entry, its timestamp and its invoke or
  /// deliver count.  counts() and set_counts() read and put back every
  /// counter at once.
  void unrecord(ProcessId p);
  TraceCounts counts() const;
  void set_counts(const TraceCounts& counts);

  void count_control_packet(std::size_t bytes);
  void count_user_packet(std::size_t tag_bytes);
  void count_drop() { ++drops_; }
  void count_retransmission() { ++retransmissions_; }
  void count_duplicate_arrival() { ++duplicate_arrivals_; }

  const std::vector<Message>& universe() const { return universe_; }
  const std::vector<std::vector<TimedEvent>>& logs() const { return logs_; }
  const MessageTimes& times(MessageId m) const { return times_[m]; }

  std::size_t control_packets() const { return control_packets_; }
  std::size_t user_packets() const { return user_packets_; }
  std::size_t control_bytes() const { return control_bytes_; }
  std::size_t tag_bytes() const { return tag_bytes_; }
  std::size_t drops() const { return drops_; }
  std::size_t retransmissions() const { return retransmissions_; }
  std::size_t duplicate_arrivals() const { return duplicate_arrivals_; }

  double control_packets_per_message() const;
  double mean_tag_bytes() const;
  double mean_latency() const;
  double mean_delivery_delay() const;
  double max_latency() const;

  /// All messages invoked were delivered (the liveness deliverable).
  /// O(1): maintained as invoke/deliver counters, not a table scan.
  bool all_delivered() const { return invoked_ == delivered_; }

  std::size_t invoked() const { return invoked_; }
  std::size_t delivered() const { return delivered_; }

  /// The system view of the execution.
  std::optional<SystemRun> to_system_run(std::string* error = nullptr) const;
  /// The user's view (requires all sent messages delivered).
  std::optional<UserRun> to_user_run(std::string* error = nullptr) const;

 private:
  std::vector<Message> universe_;
  std::vector<std::vector<TimedEvent>> logs_;
  std::vector<MessageTimes> times_;
  std::size_t invoked_ = 0;
  std::size_t delivered_ = 0;
  std::size_t control_packets_ = 0;
  std::size_t user_packets_ = 0;
  std::size_t control_bytes_ = 0;
  std::size_t tag_bytes_ = 0;
  std::size_t drops_ = 0;
  std::size_t retransmissions_ = 0;
  std::size_t duplicate_arrivals_ = 0;
};

}  // namespace msgorder
