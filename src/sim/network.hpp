// Network model: point-to-point channels with configurable latency.  By
// default channels are *not* FIFO (each packet draws an independent
// delay, so packets overtake each other), which is the weakest substrate
// the paper's protocols must survive on.  A FIFO toggle exists for
// ablations.
//
// Delay randomness is drawn from per-channel SplitMix64 streams seeded
// by (run seed, src, dst), so the delay sequence a channel sees depends
// only on its own emission order — never on how emissions from other
// channels interleave globally.  That is what makes arrival times the
// same at every shard count, bit for bit: each shard owns the channel
// state of its source processes and replays exactly the per-channel
// draw order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/protocols/protocol.hpp"
#include "src/util/rng.hpp"

namespace msgorder {

struct NetworkOptions {
  /// Fixed propagation delay added to every packet.
  SimTime base_delay = 1.0;
  /// Mean of the additional exponential jitter (0 disables jitter and
  /// makes channels effectively FIFO).
  SimTime jitter_mean = 1.0;
  /// Force per-channel FIFO arrival order even with jitter.
  bool fifo_channels = false;
  /// Probability that a packet is silently dropped (failure injection;
  /// pair with the reliability layer of src/protocols/reliable.hpp).
  double loss_probability = 0.0;
  /// Fault injection for divergence forensics (ISSUE 9): XOR this into
  /// the stream seed of the single channel perturb_src -> perturb_dst,
  /// swapping its jitter sequence while leaving every other channel —
  /// and the deterministic tiebreak order — untouched.  0 disables.
  /// `msgorder_query diverge` on a perturbed vs baseline tracelog then
  /// names the exact first event the swap moved.
  std::uint64_t perturb_channel_xor = 0;
  ProcessId perturb_src = 0;
  ProcessId perturb_dst = 0;
};

class Network {
 public:
  Network() = default;

  /// Channel state for the source processes owned by `shard` of
  /// `n_shards` (process p is owned iff p % n_shards == shard).  The
  /// delay stream of a channel depends only on (seed, src, dst), so any
  /// partition of the sources draws identical per-channel sequences.
  /// A one-shard run uses the default view of every source.
  Network(NetworkOptions options, std::uint64_t seed,
          std::size_t n_processes, std::size_t shard = 0,
          std::size_t n_shards = 1);

  /// Arrival time for a packet handed to the network at `now`.  `src`
  /// must be a process owned by this shard view.
  SimTime arrival_time(ProcessId src, ProcessId dst, SimTime now);

  const NetworkOptions& options() const { return options_; }

  /// Conservative lookahead: a lower bound on every channel delay
  /// (jitter is nonnegative, so the base delay is exact).  The engine's
  /// synchronization windows are derived from this; a non-positive
  /// lookahead forces one shard with one-entry windows.
  static SimTime lookahead(const NetworkOptions& options) {
    return options.base_delay;
  }

  /// Deterministic per-channel stream seed (SplitMix64-mixed).
  static std::uint64_t channel_seed(std::uint64_t seed, ProcessId src,
                                    ProcessId dst);

 private:
  struct Channel {
    Rng rng{0};
    /// Last scheduled arrival, for the FIFO toggle.
    SimTime last_arrival = 0;
    bool seeded = false;
  };

  Channel& channel(ProcessId src, ProcessId dst);

  NetworkOptions options_;
  std::uint64_t seed_ = 0;
  std::size_t n_processes_ = 0;
  std::size_t n_shards_ = 1;
  /// [src / n_shards][dst], lazily seeded on first use.
  std::vector<Channel> channels_;
};

}  // namespace msgorder
