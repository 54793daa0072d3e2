// Observer fan-out for the simulator (ISSUE 2 satellite): the old
// SimOptions::observer was a single std::function slot, forcing the
// online monitor and user callbacks to wrap each other by hand.
// ObserverMux lets any number of observers attach to one run; the
// engine notifies them in attachment order after each recorded system
// event.
//
// Observers need no thread safety.  A one-shard run notifies them
// inline, as each event happens.  A multi-shard run buffers events per
// shard and replays them to every observer on one thread, after the
// run, in the deterministic (time, tiebreak) merge order — the exact
// order a one-shard run produces.
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

class ObserverMux {
 public:
  /// Attach an observer; returns *this so attachments chain.
  ObserverMux& add(SimObserver observer) {
    observers_.push_back(std::move(observer));
    return *this;
  }

  void clear() { observers_.clear(); }
  bool empty() const { return observers_.empty(); }
  std::size_t size() const { return observers_.size(); }

  /// Notify every observer in attachment order.
  void notify(ProcessId p, SystemEvent e, SimTime t) const {
    for (const SimObserver& fn : observers_) fn(p, e, t);
  }

 private:
  std::vector<SimObserver> observers_;
};

}  // namespace msgorder
