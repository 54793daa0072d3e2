// Simulation profiling layer: per-shard, per-window counters collected
// inside the simulator engine so its internals — conservative-window
// stalls, barrier waits, heap pressure — stop being a black box.
//
// Collection is strictly opt-in: enable ObservabilityOptions::profiling
// and the engine fills the rows below; leave it off (or attach no
// Observability at all) and the engine sees a null SimProfile pointer,
// so the hot path pays at most one cached pointer test per window /
// heap push (bounded by bench_protocol_overhead --overhead-guard).
//
// Threading contract: each ShardProfileRow is written only by the
// worker thread driving that shard (rows are cache-line separated), each
// WorkerProfileRow only by its worker, and the window-level aggregates
// only by the single-threaded window reduction — so no counter needs an
// atomic.  Everything is read after the run joins.
//
// Output: a "msgorder.profile/2" JSON section (embedded in
// msgorder.run_report/1 and writable standalone via the examples'
// --profile flag) plus Perfetto counter tracks ("C" phase events)
// rendered from the retained samples by chrome_trace_json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/protocols/protocol.hpp"

namespace msgorder {

class JsonWriter;

/// One per-window measurement retained for the Perfetto counter tracks
/// (bounded per shard; overflow is counted, never silently dropped).
struct ProfileSample {
  SimTime time = 0;            // window end
  std::uint32_t entries = 0;   // queue entries processed this window
  std::uint32_t heap_depth = 0;  // shard heap size at the window end
};

/// Per-shard counters.  Cache-line aligned: each row has exactly one
/// writer (the worker driving the shard) for the whole run.
struct alignas(64) ShardProfileRow {
  std::uint64_t windows = 0;        // windows this shard was polled in
  std::uint64_t busy_windows = 0;   // windows with >= 1 entry processed
  /// Zero-progress windows by cause: entries were pending but all
  /// beyond the conservative window (lookahead exhaustion) ...
  std::uint64_t stall_lookahead = 0;
  /// ... or nothing was pending at all.  busy_windows + stall_lookahead
  /// + stall_empty == windows.
  std::uint64_t stall_empty = 0;
  std::uint64_t entries = 0;   // queue entries processed (invokes/arrivals/timers)
  std::uint64_t events = 0;    // trace events recorded (sums to sim.events)
  std::uint64_t max_entries_in_window = 0;
  /// Largest shard heap (pending arrivals and timers).  Invokes wait in
  /// a separate sorted cursor and are never counted, at any shard count.
  std::uint64_t heap_depth_hwm = 0;
  std::vector<ProfileSample> samples;
  std::uint64_t samples_dropped = 0;
};

/// Per-worker barrier accounting (threaded mode only; the cooperative
/// single-worker loop has no barriers and leaves the row zero).
struct alignas(64) WorkerProfileRow {
  std::uint64_t barrier_waits = 0;
  double barrier_wait_seconds = 0;
};

class SimProfile {
 public:
  /// Cap on retained per-shard counter samples; past it, samples are
  /// counted in samples_dropped instead (the counters stay exact).
  static constexpr std::size_t kMaxSamplesPerShard = 4096;

  /// Called by the engine that owns this run: resets every row and
  /// records the topology.
  void begin_run(const char* engine, std::size_t n_shards,
                 std::size_t n_workers, SimTime lookahead);

  ShardProfileRow& shard(std::size_t s) { return shards_[s]; }
  const ShardProfileRow& shard(std::size_t s) const { return shards_[s]; }
  WorkerProfileRow& worker(std::size_t w) { return workers_[w]; }
  const WorkerProfileRow& worker(std::size_t w) const { return workers_[w]; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t worker_count() const { return workers_.size(); }

  /// Retain one per-window sample for shard `s` (bounded; single writer
  /// per shard, same as the row counters).
  void sample(std::size_t s, SimTime window_end, std::uint64_t entries,
              std::size_t heap_depth);

  /// Called by the single-threaded window reduction each time a new
  /// window is agreed; `global_min` is the earliest pending time the
  /// window starts from.
  void on_window(SimTime global_min);

  std::uint64_t windows() const { return windows_; }
  SimTime lookahead() const { return lookahead_; }
  const std::string& engine() const { return engine_; }
  std::uint64_t total_events() const;
  std::uint64_t total_entries() const;
  std::uint64_t total_stall_lookahead() const;
  std::uint64_t total_stall_empty() const;
  /// Always 0: cross-shard hand-off has no bounded buffer to back up.
  /// Kept only for perfbench/src/workloads.cpp, which reports it as
  /// sim.stall_backpressure.
  std::uint64_t total_stall_backpressure() const { return 0; }

  /// Append the "msgorder.profile/2" section as an object value (the
  /// "schema" tag is inside, so the section validates standalone too).
  void write_json(JsonWriter& w) const;
  /// The section as a complete standalone JSON document.
  std::string to_json() const;

 private:
  std::string engine_ = "sequential";
  std::vector<ShardProfileRow> shards_;
  std::vector<WorkerProfileRow> workers_;
  SimTime lookahead_ = 0;
  // Window aggregates, written only by the reduction.
  std::uint64_t windows_ = 0;
  SimTime prev_window_start_ = 0;
  SimTime advance_sum_ = 0;
  SimTime advance_max_ = 0;
};

}  // namespace msgorder
