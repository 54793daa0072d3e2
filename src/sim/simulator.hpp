// The discrete-event simulator: processes run protocol instances, the
// network delays packets, and every system event (invoke / send /
// receive / deliver) is recorded in a Trace whose user view is then
// judged by the independent specification checkers.  This is the
// operational validation layer for the paper's protocol classes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/obs/observability.hpp"
#include "src/obs/observer.hpp"
#include "src/protocols/protocol.hpp"
#include "src/sim/network.hpp"
#include "src/sim/trace.hpp"
#include "src/sim/workload.hpp"

namespace msgorder {

struct SimOptions {
  NetworkOptions network;
  std::uint64_t seed = 1;
  /// Hard cap on processed events (guards against protocol livelock).
  /// Enforced globally across shards; the error names the shard that
  /// tripped it.
  std::size_t max_events = 10'000'000;
  /// Event-loop shards.  Processes are partitioned round-robin over the
  /// shards, which advance in conservative lower-bound-timestamp windows
  /// (lookahead = NetworkOptions::base_delay).  1 (the default) runs one
  /// shard on the calling thread with no synchronization at all; N >= 2
  /// runs exactly N (clamped to the process count); 0 picks
  /// automatically from the hardware and process count.  The resulting
  /// SimResult.trace is bit-identical for every shard count at the same
  /// seed.  A non-positive lookahead forces one shard, whose windows
  /// then hold one entry each (see SimResult::shards_used).
  std::size_t shards = 1;
  /// Worker threads driving the shards: 0 (default) = min(shards,
  /// hardware concurrency).  Fewer workers than shards run several
  /// shards per worker cooperatively — same result either way.
  std::size_t shard_workers = 0;
  /// Observer fan-out, called after every recorded system event
  /// (invoke/send/receive/deliver): online monitors
  /// (src/checker/monitor.hpp) and user callbacks all attach here via
  /// observers.add(...).  With several shards the calls come window by
  /// window, in the one-shard order, from the window barrier's
  /// completion step, which is noexcept: an observer that throws there
  /// terminates the program.
  ObserverMux observers;
  /// Optional metrics + attribution + profiling bundle, owned by the
  /// caller and filled during the run (src/obs/observability.hpp).
  /// nullptr — the default — disables the whole layer at the cost of one
  /// pointer test per event.
  Observability* observability = nullptr;
};

struct SimResult {
  Trace trace;
  /// True iff the run completed: every invoked message was delivered and
  /// the event cap was not hit.
  bool completed = false;
  std::string error;
  /// How the run actually executed (after auto-selection and the
  /// zero-lookahead one-shard rule).
  std::size_t shards_used = 1;
  std::size_t workers_used = 1;
};

/// Run `workload` under the protocol produced by `factory` at every
/// process.  The simulation stops when all user messages are delivered
/// (remaining control chatter is dropped) or when nothing is left to do.
SimResult simulate(const Workload& workload, const ProtocolFactory& factory,
                   std::size_t n_processes, const SimOptions& options = {});

}  // namespace msgorder
