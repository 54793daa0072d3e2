// Observer fan-out for the simulator (ISSUE 2 satellite): the old
// SimOptions::observer was a single std::function slot, forcing the
// online monitor, tracers, and user callbacks to wrap each other by
// hand.  ObserverMux lets any number of observers attach to one run;
// the engine notifies them in attachment order after each recorded
// system event.
//
// Shard safety.  With several shards the engine records events from
// several worker threads, so every observer declares a safety class at
// attachment time:
//
//  - kMergePhase (the default): the observer is NOT thread-safe (online
//    monitors, tracers, anything with unguarded state).  A multi-shard
//    run buffers events per shard and replays them to merge-phase
//    observers on one thread, after the run, in the deterministic
//    (time, tiebreak) merge order — the exact order a one-shard run
//    produces.  Correct by construction, but the callback sees events
//    after the fact, not live.
//  - kThreadSafe: the observer promises its own synchronization (or is
//    stateless).  A multi-shard run calls it inline from the worker
//    thread that recorded the event; events of one shard arrive in
//    order, events of different shards interleave arbitrarily.
//
// A one-shard run ignores the distinction and notifies everyone inline
// in attachment order, as each event happens.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "src/poset/event.hpp"
#include "src/protocols/protocol.hpp"

namespace msgorder {

/// Called after every recorded system event (invoke/send/receive/
/// deliver) with the process it occurred at and the simulation time.
using SimObserver = std::function<void(ProcessId, SystemEvent, SimTime)>;

/// Declares when a multi-shard run may invoke an observer; see the
/// header comment.  One-shard runs treat both classes identically.
enum class ObserverSafety : std::uint8_t {
  kMergePhase,  ///< not thread-safe: replayed in merge order post-run
  kThreadSafe,  ///< self-synchronized: called live from shard threads
};

class ObserverMux {
 public:
  /// Attach an observer; returns *this so attachments chain.
  ObserverMux& add(SimObserver observer,
                   ObserverSafety safety = ObserverSafety::kMergePhase) {
    observers_.push_back({std::move(observer), safety});
    return *this;
  }

  void clear() { observers_.clear(); }
  bool empty() const { return observers_.empty(); }
  std::size_t size() const { return observers_.size(); }

  bool has_merge_phase() const {
    return count(ObserverSafety::kMergePhase) > 0;
  }
  bool has_thread_safe() const {
    return count(ObserverSafety::kThreadSafe) > 0;
  }

  /// Notify every observer in attachment order (one-shard runs).
  void notify(ProcessId p, SystemEvent e, SimTime t) const {
    for (const Entry& entry : observers_) entry.fn(p, e, t);
  }

  /// Notify only the thread-safe observers (multi-shard runs, live from
  /// a worker thread).
  void notify_thread_safe(ProcessId p, SystemEvent e, SimTime t) const {
    notify_class(ObserverSafety::kThreadSafe, p, e, t);
  }

  /// Notify only the merge-phase observers (multi-shard runs, during the
  /// single-threaded deterministic replay).
  void notify_merge_phase(ProcessId p, SystemEvent e, SimTime t) const {
    notify_class(ObserverSafety::kMergePhase, p, e, t);
  }

 private:
  struct Entry {
    SimObserver fn;
    ObserverSafety safety;
  };

  std::size_t count(ObserverSafety safety) const {
    std::size_t n = 0;
    for (const Entry& entry : observers_) n += (entry.safety == safety) ? 1 : 0;
    return n;
  }

  void notify_class(ObserverSafety safety, ProcessId p, SystemEvent e,
                    SimTime t) const {
    for (const Entry& entry : observers_) {
      if (entry.safety == safety) entry.fn(p, e, t);
    }
  }

  std::vector<Entry> observers_;
};

}  // namespace msgorder
