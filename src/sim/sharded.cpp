// The simulator's event loop: one conservative-window shard engine for
// every shard count.
//
// Processes are partitioned round-robin over N shards (p belongs to
// shard p mod N), each shard owning its processes' protocol instances,
// event heap, packet slab, and per-channel network state.  Time advances
// in conservative windows [m, m + L) where m is the earliest pending
// entry across shards and L is the lookahead (minimum channel delay):
// every cross-shard packet sent inside a window arrives at or after its
// end, so shards process a window with no communication at all, then
// exchange packets through bounded SPSC rings at a barrier and agree on
// the next window.  Scheduling uses the deterministic (time, tiebreak)
// key of engine_detail.hpp, so the merged execution — and therefore
// SimResult.trace — is the same at any shard count for the same seed.
//
// One shard is the degenerate case: no rings, no barrier, and the
// observability sink fed inline because processing order already is
// merge order.  A non-positive lookahead forces one shard and windows of
// exactly one entry.
#include "src/sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <chrono>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <tuple>
#include <vector>

#include "src/sim/engine_detail.hpp"
#include "src/util/spsc_ring.hpp"

namespace msgorder {

namespace {

using sim_detail::EngineCounters;
using sim_detail::EntryKind;
using sim_detail::make_tiebreak;
using sim_detail::ObsItem;
using sim_detail::ObsSink;
using sim_detail::tiebreak_kind;
using sim_detail::tiebreak_owner;

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

/// A pending arrival or timer.  24 bytes of POD: the heap stays tiny
/// (invokes live in a sorted cursor, packets in a slab) and pops never
/// copy fat entries.
struct HeapItem {
  SimTime time = 0;
  std::uint64_t tiebreak = 0;
  /// Arrival: packet slab slot.  Timer: the cookie (the owning process
  /// is recoverable from the tiebreak).
  std::uint64_t payload = 0;
};

struct HeapItemGreater {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    return std::tie(a.time, a.tiebreak) > std::tie(b.time, b.tiebreak);
  }
};

/// A pre-sorted invoke, consumed through a cursor instead of the heap.
struct PendingInvoke {
  SimTime time = 0;
  std::uint64_t tiebreak = 0;
  Message message;
};

/// A packet crossing shards: arrival time, deterministic key, payload.
struct CrossMsg {
  SimTime time = 0;
  std::uint64_t tiebreak = 0;
  Packet packet;
};

/// Per-shard state published at each window barrier, read by the
/// single-threaded reduction.  Padded: each shard writes only its own.
struct alignas(64) ShardSlot {
  SimTime local_min = kInf;
  std::size_t processed = 0;
  std::size_t invoked = 0;
  std::size_t delivered = 0;
  std::size_t invokes_left = 0;
};

class ShardedEngine;
class Shard;

class ShardHost final : public Host {
 public:
  ShardHost(Shard* shard, ProcessId self) : shard_(shard), self_(self) {}

  void send_packet(Packet packet) override;
  void deliver(MessageId msg) override;
  void set_timer(SimTime delay, std::uint64_t cookie) override;
  SimTime now() const override;
  ProcessId self() const override { return self_; }
  std::size_t process_count() const override;
  const Message& message(MessageId msg) const override;
  void hold(MessageId msg, const HoldReason& reason) override;
  bool wants_hold_reasons() const override;

 private:
  Shard* shard_;
  ProcessId self_;
};

/// One shard: the processes p with p % n_shards == id, their protocol
/// instances, event heap, packet slab, and channel state.  Everything
/// here is touched only by the worker thread driving the shard.
class Shard {
 public:
  Shard(ShardedEngine* engine, std::size_t id);

  void add_invoke(SimTime time, std::uint64_t tiebreak, const Message& m) {
    invokes_.push_back({time, tiebreak, m});
  }
  void seal_invokes() {
    std::sort(invokes_.begin(), invokes_.end(),
              [](const PendingInvoke& a, const PendingInvoke& b) {
                return std::tie(a.time, a.tiebreak) <
                       std::tie(b.time, b.tiebreak);
              });
  }

  /// Process every owned entry with time < window_end, in key order —
  /// or exactly one entry when the lookahead is non-positive.  With
  /// profiling attached, also does the per-window accounting
  /// (busy/stall classification, samples) around process_entries().
  void process_window(SimTime window_end);

  /// Admit packets parked in this shard's inbound rings and spill
  /// vectors (safe only at a barrier: producers are quiescent).
  void drain_inbox();

  /// Publish the reduction inputs for the next window computation.
  void publish_slot();

  void admit(CrossMsg&& msg) {
    heap_.push({msg.time, msg.tiebreak, alloc_slot(std::move(msg.packet))});
    note_heap_depth();
  }

  // Host services (forwarded by ShardHost).
  void send_packet(ProcessId from, Packet packet);
  void set_timer(ProcessId at, SimTime delay, std::uint64_t cookie);
  void deliver(ProcessId at, MessageId msg);
  void hold(ProcessId at, MessageId msg, const HoldReason& reason);
  bool wants_hold_reasons() const;
  std::size_t process_count() const;
  const Message& message(MessageId msg) const;
  SimTime now() const { return now_; }

  const EngineCounters& counts() const { return counts_; }
  std::vector<ObsItem>& obs_items() { return obs_; }

 private:
  friend class ShardedEngine;

  std::size_t local_of(ProcessId p) const;
  void process_entries(SimTime window_end);
  void note_heap_depth() {
    if (prof_ != nullptr && heap_.size() > prof_->heap_depth_hwm) {
      prof_->heap_depth_hwm = heap_.size();
    }
  }
  std::uint64_t alloc_slot(Packet&& packet) {
    if (!free_slots_.empty()) {
      const std::uint64_t slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(packet);
      return slot;
    }
    slab_.push_back(std::move(packet));
    return slab_.size() - 1;
  }

  /// Handle the earliest owned entry if it starts before window_end;
  /// false when none does or the event cap tripped.
  bool step(SimTime window_end);
  void handle_invoke();
  void handle_heap_top();
  void record(ProcessId at, SystemEvent e);
  void trip_cap();

  ShardedEngine* eng_;
  std::size_t id_;
  Network network_;
  std::vector<std::unique_ptr<ShardHost>> hosts_;
  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::vector<PendingInvoke> invokes_;
  std::size_t invoke_pos_ = 0;
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapItemGreater>
      heap_;
  std::vector<Packet> slab_;
  std::vector<std::uint64_t> free_slots_;
  std::vector<std::uint64_t> emit_counter_;   // by local process index
  std::vector<std::uint64_t> timer_counter_;  // by local process index
  std::vector<Rng> loss_rngs_;                // by local process index
  EngineCounters counts_;
  std::vector<ObsItem> obs_;
  SimTime now_ = 0;
  std::uint64_t cur_tiebreak_ = 0;
  std::size_t processed_ = 0;
  /// One shard only: the sink, fed as each event happens — processing
  /// order already is merge order.  nullptr with several shards, which
  /// buffer ObsItems for the merge replay instead.
  ObsSink* inline_sink_ = nullptr;
  bool buffering_ = false;
  /// Profiler row for this shard (nullptr when profiling is off); the
  /// only writer is the worker driving this shard.
  SimProfile* profile_ = nullptr;
  ShardProfileRow* prof_ = nullptr;
  /// A zero-progress window with nothing pending locally: resolved at
  /// the next drain into stall_backpressure (spilled packets arrived —
  /// the ring was the bottleneck) or stall_empty.
  bool pending_empty_stall_ = false;
};

class ShardedEngine {
 public:
  ShardedEngine(const Workload& workload, const ProtocolFactory& factory,
                std::size_t n_processes, const SimOptions& options,
                std::size_t n_shards, std::size_t n_workers)
      : universe_(workload_universe(workload)),
        n_processes_(n_processes),
        options_(options),
        n_shards_(n_shards),
        n_workers_(std::max<std::size_t>(1, std::min(n_workers, n_shards))),
        lookahead_(Network::lookahead(options.network)),
        trace_(universe_, n_processes),
        send_seen_(universe_.size(), 0),
        receive_seen_(universe_.size(), 0),
        sink_(options.observability, &options_.observers, &trace_,
              universe_.size()),
        slots_(n_shards),
        rings_(n_shards * n_shards),
        spills_(n_shards * n_shards) {
    assert(n_shards_ == 1 || lookahead_ > 0);
    // The engine label predates the single engine: tools and logs name a
    // one-shard run "sequential".
    const char* engine = n_shards_ == 1 ? "sequential" : "sharded";
    profile_ = sink_.profile();
    if (profile_ != nullptr) {
      profile_->begin_run(engine, n_shards_, n_workers_, lookahead_);
    }
    sink_.open_tracelog(engine, n_shards_, n_workers_, lookahead_,
                        options_.seed, n_processes_);
    const std::size_t ring_capacity =
        std::max<std::size_t>(2, options.cross_shard_ring_capacity);
    for (std::size_t a = 0; a < n_shards_; ++a) {
      for (std::size_t b = 0; b < n_shards_; ++b) {
        if (a != b) {
          rings_[a * n_shards_ + b] =
              std::make_unique<SpscRing<CrossMsg>>(ring_capacity);
        }
      }
    }
    shards_.reserve(n_shards_);
    for (std::size_t s = 0; s < n_shards_; ++s) {
      shards_.push_back(std::make_unique<Shard>(this, s));
    }
    // Protocol instances must exist before any invoke runs; the factory
    // runs on this thread for every shard (factories are not required
    // to be thread-safe).
    for (auto& shard : shards_) {
      for (std::size_t local = 0; local * n_shards_ + shard->id_ < n_processes_;
           ++local) {
        const auto p =
            static_cast<ProcessId>(local * n_shards_ + shard->id_);
        shard->hosts_.push_back(std::make_unique<ShardHost>(shard.get(), p));
        shard->protocols_.push_back(factory(*shard->hosts_.back()));
      }
    }
    for (std::size_t i = 0; i < workload.size(); ++i) {
      const InvokeRequest& req = workload[i];
      shards_[req.message.src % n_shards_]->add_invoke(
          req.time, make_tiebreak(EntryKind::kInvoke, req.message.src, i),
          req.message);
    }
    for (auto& shard : shards_) shard->seal_invokes();
  }

  SimResult run() {
    for (auto& shard : shards_) shard->publish_slot();
    reduce();
    if (!done_) {
      if (n_workers_ == 1) {
        run_cooperative();
      } else {
        run_threaded();
      }
    }
    return finalize();
  }

  // --- Shard-facing services -------------------------------------------

  void route(std::size_t from_shard, std::size_t to_shard, CrossMsg&& msg) {
    SpscRing<CrossMsg>& ring = *rings_[from_shard * n_shards_ + to_shard];
    if (!ring.try_push(std::move(msg))) {
      // Ring full: park in the producer-owned spill vector; the
      // consumer drains it at the next barrier, after the ring.  The
      // producer's row is safe to touch — route runs on its worker.
      if (profile_ != nullptr) ++profile_->shard(from_shard).ring_full_spins;
      spills_[from_shard * n_shards_ + to_shard].push_back(std::move(msg));
    }
  }

  const Message& message(MessageId msg) const { return universe_[msg]; }
  std::size_t process_count() const { return n_processes_; }

 private:
  friend class Shard;

  void run_cooperative() {
    while (!done_) {
      for (auto& shard : shards_) shard->process_window(window_end_);
      for (auto& shard : shards_) {
        shard->drain_inbox();
        shard->publish_slot();
      }
      reduce();
    }
  }

  void run_threaded() {
    std::barrier<> work_done(static_cast<std::ptrdiff_t>(n_workers_));
    auto on_reduce = [this]() noexcept { reduce(); };
    std::barrier<decltype(on_reduce)> window_agreed(
        static_cast<std::ptrdiff_t>(n_workers_), on_reduce);
    auto worker = [&](std::size_t w) {
      WorkerProfileRow* wrow =
          profile_ != nullptr ? &profile_->worker(w) : nullptr;
      const auto timed_wait = [wrow](auto& barrier) {
        if (wrow == nullptr) {
          barrier.arrive_and_wait();
          return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        barrier.arrive_and_wait();
        wrow->barrier_wait_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        ++wrow->barrier_waits;
      };
      while (!done_) {
        for (std::size_t s = w; s < n_shards_; s += n_workers_) {
          shards_[s]->process_window(window_end_);
        }
        timed_wait(work_done);
        for (std::size_t s = w; s < n_shards_; s += n_workers_) {
          shards_[s]->drain_inbox();
          shards_[s]->publish_slot();
        }
        timed_wait(window_agreed);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(n_workers_ - 1);
    for (std::size_t w = 1; w < n_workers_; ++w) {
      threads.emplace_back(worker, w);
    }
    worker(0);
    for (std::thread& t : threads) t.join();
  }

  /// Window reduction: single-threaded (barrier completion or the
  /// cooperative loop).  Decides cap / completion / next window.
  void reduce() {
    std::size_t processed = 0;
    std::size_t invoked = 0;
    std::size_t delivered = 0;
    std::size_t invokes_left = 0;
    SimTime global_min = kInf;
    std::size_t busiest_shard = 0;
    for (std::size_t s = 0; s < n_shards_; ++s) {
      const ShardSlot& slot = slots_[s];
      processed += slot.processed;
      invoked += slot.invoked;
      delivered += slot.delivered;
      invokes_left += slot.invokes_left;
      global_min = std::min(global_min, slot.local_min);
      if (slot.processed > slots_[busiest_shard].processed) busiest_shard = s;
    }
    const int capped = cap_shard_.load(std::memory_order_acquire);
    if (capped >= 0) {
      done_ = true;
      cap_hit_shard_ = static_cast<std::size_t>(capped);
      return;
    }
    if (processed > options_.max_events) {
      done_ = true;
      cap_hit_shard_ = busiest_shard;
      return;
    }
    if (invokes_left == 0 && invoked == delivered) {
      done_ = true;
      completed_ = true;
      return;
    }
    if (global_min == kInf) {
      // Nothing pending anywhere: the run drained without delivering
      // everything (dropped packets with no retransmission, say).
      done_ = true;
      completed_ = false;
      return;
    }
    window_end_ = global_min + lookahead_;
    if (profile_ != nullptr) profile_->on_window(global_min);
  }

  SimResult finalize() {
    EngineCounters total;
    SimTime now_max = 0;
    for (auto& shard : shards_) {
      const EngineCounters& c = shard->counts();
      total.trace.invoked += c.trace.invoked;
      total.trace.delivered += c.trace.delivered;
      total.trace.control_packets += c.trace.control_packets;
      total.trace.user_packets += c.trace.user_packets;
      total.trace.control_bytes += c.trace.control_bytes;
      total.trace.tag_bytes += c.trace.tag_bytes;
      total.trace.drops += c.trace.drops;
      total.trace.retransmissions += c.trace.retransmissions;
      total.trace.duplicate_arrivals += c.trace.duplicate_arrivals;
      total.timer_fires += c.timer_fires;
      now_max = std::max(now_max, shard->now());
    }
    trace_.add_counts(total.trace);
    sink_.add_counts(total);

    // Deterministic observability replay: merge the per-shard buffers
    // on (time, entry key) — stable, so intra-entry order survives —
    // and hand them to the instruments / attribution / record writer /
    // observers in key order.
    if (n_shards_ > 1 && sink_.buffering_needed()) {
      std::size_t total_items = 0;
      for (auto& shard : shards_) total_items += shard->obs_items().size();
      std::vector<ObsItem> merged;
      merged.reserve(total_items);
      for (auto& shard : shards_) {
        auto& items = shard->obs_items();
        merged.insert(merged.end(), std::make_move_iterator(items.begin()),
                      std::make_move_iterator(items.end()));
        items.clear();
        items.shrink_to_fit();
      }
      std::stable_sort(merged.begin(), merged.end(),
                       [](const ObsItem& a, const ObsItem& b) {
                         return std::tie(a.time, a.entry_tiebreak) <
                                std::tie(b.time, b.entry_tiebreak);
                       });
      sink_.replay(merged);
    }

    std::string error;
    if (cap_hit_shard_ != kNoShard) {
      error = "event cap exceeded in shard " +
              std::to_string(cap_hit_shard_) + " of " +
              std::to_string(n_shards_) + " (protocol livelock?)";
      // The note names the tripping shard so a flight-recorder
      // post-mortem (dump_postmortem_if_red) pins the error path even
      // without the full tracelog.
      sink_.note("invariant: " + error, now_max);
      completed_ = false;
    } else if (!completed_) {
      error = "undelivered messages remain";
      sink_.note("invariant: undelivered messages remain", now_max);
    }
    sink_.finish_tracelog();
    SimResult result{std::move(trace_), completed_, std::move(error),
                     n_shards_, n_workers_};
    return result;
  }

  static constexpr std::size_t kNoShard =
      std::numeric_limits<std::size_t>::max();

  std::vector<Message> universe_;
  std::size_t n_processes_;
  SimOptions options_;
  std::size_t n_shards_;
  std::size_t n_workers_;
  SimTime lookahead_;
  Trace trace_;
  /// Byte flags, never bit-packed: send side is written only by the
  /// message's source shard, receive side only by its destination shard.
  std::vector<std::uint8_t> send_seen_;
  std::vector<std::uint8_t> receive_seen_;
  ObsSink sink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardSlot> slots_;
  /// rings_[a * n_shards + b]: packets from shard a to shard b (null on
  /// the diagonal).  Written by a's worker, drained by b's at barriers.
  std::vector<std::unique_ptr<SpscRing<CrossMsg>>> rings_;
  std::vector<std::vector<CrossMsg>> spills_;
  // Window state: written by reduce() (single-threaded between
  // barriers), read by workers after the barrier releases them.
  SimTime window_end_ = 0;
  bool done_ = false;
  bool completed_ = false;
  std::size_t cap_hit_shard_ = kNoShard;
  /// First shard to trip the local event cap mid-window; also aborts
  /// the other workers' current window.
  std::atomic<int> cap_shard_{-1};
  std::atomic<bool> abort_{false};
  /// Engine profiler, or nullptr (ObservabilityOptions::profiling).
  SimProfile* profile_ = nullptr;
};

// --- Shard implementation ----------------------------------------------

Shard::Shard(ShardedEngine* engine, std::size_t id)
    : eng_(engine),
      id_(id),
      network_(engine->options_.network, engine->options_.seed,
               engine->n_processes_, id, engine->n_shards_),
      inline_sink_(engine->n_shards_ == 1 ? &engine->sink_ : nullptr),
      buffering_(inline_sink_ == nullptr &&
                 engine->sink_.buffering_needed()),
      profile_(engine->profile_) {
  if (profile_ != nullptr) prof_ = &profile_->shard(id);
  const std::size_t n_local =
      engine->n_processes_ > id
          ? (engine->n_processes_ - id + engine->n_shards_ - 1) /
                engine->n_shards_
          : 0;
  emit_counter_.assign(n_local, 0);
  timer_counter_.assign(n_local, 0);
  if (engine->options_.network.loss_probability > 0) {
    loss_rngs_.reserve(n_local);
    for (std::size_t local = 0; local < n_local; ++local) {
      const auto p =
          static_cast<ProcessId>(local * engine->n_shards_ + id);
      loss_rngs_.push_back(
          sim_detail::per_process_loss_rng(engine->options_.seed, p));
    }
  }
}

std::size_t Shard::local_of(ProcessId p) const {
  assert(p % eng_->n_shards_ == id_);
  return p / eng_->n_shards_;
}

void Shard::process_window(SimTime window_end) {
  if (prof_ == nullptr) {
    process_entries(window_end);
    return;
  }
  const std::size_t before = processed_;
  process_entries(window_end);
  const auto n = static_cast<std::uint64_t>(processed_ - before);
  ++prof_->windows;
  prof_->entries += n;
  if (n > 0) {
    ++prof_->busy_windows;
    if (n > prof_->max_entries_in_window) prof_->max_entries_in_window = n;
    pending_empty_stall_ = false;
  } else if (invoke_pos_ < invokes_.size() || !heap_.empty()) {
    // Local work exists but sits at or beyond window_end: the
    // conservative lookahead bound is what blocked this shard.
    ++prof_->stall_lookahead;
  } else {
    // Nothing pending here at all; whether that is true idleness or
    // ring backpressure is only known once the inbox drains.
    pending_empty_stall_ = true;
  }
  profile_->sample(id_, window_end, n, heap_.size());
}

void Shard::process_entries(SimTime window_end) {
  if (eng_->lookahead_ <= 0) {
    // No lookahead (one shard): handling an entry may schedule an
    // arrival at the same instant, so a window is exactly one entry and
    // completion is checked between every two.
    step(kInf);
    return;
  }
  while (!eng_->abort_.load(std::memory_order_relaxed) && step(window_end)) {
  }
}

bool Shard::step(SimTime window_end) {
  const bool has_invoke = invoke_pos_ < invokes_.size();
  const bool has_heap = !heap_.empty();
  if (!has_invoke && !has_heap) return false;
  bool take_invoke = has_invoke;
  SimTime t = 0;
  if (has_invoke && has_heap) {
    const HeapItem& top = heap_.top();
    const PendingInvoke& inv = invokes_[invoke_pos_];
    take_invoke = std::tie(inv.time, inv.tiebreak) <
                  std::tie(top.time, top.tiebreak);
    t = take_invoke ? inv.time : top.time;
  } else if (has_invoke) {
    t = invokes_[invoke_pos_].time;
  } else {
    t = heap_.top().time;
  }
  if (t >= window_end) return false;
  if (++processed_ > eng_->options_.max_events) {
    trip_cap();
    return false;
  }
  now_ = t;
  if (take_invoke) {
    handle_invoke();
  } else {
    handle_heap_top();
  }
  return true;
}

void Shard::handle_invoke() {
  const PendingInvoke& inv = invokes_[invoke_pos_];
  ++invoke_pos_;
  cur_tiebreak_ = inv.tiebreak;
  const Message& m = inv.message;
  record(m.src, {m.id, EventKind::kInvoke});
  protocols_[local_of(m.src)]->on_invoke(m);
}

void Shard::handle_heap_top() {
  const HeapItem top = heap_.top();
  heap_.pop();
  cur_tiebreak_ = top.tiebreak;
  if (tiebreak_kind(top.tiebreak) == EntryKind::kArrival) {
    // Move the packet out before dispatch: on_packet may send, and a
    // send can grow the slab (invalidating references into it).
    const auto slot = top.payload;
    Packet pkt = std::move(slab_[slot]);
    free_slots_.push_back(slot);
    sim_detail::apply_arrival(*protocols_[local_of(pkt.dst)], pkt,
                  eng_->receive_seen_, [&](sim_detail::ArrivalClass cls) {
                    switch (cls) {
                      case sim_detail::ArrivalClass::kControl:
                        ++counts_.trace.control_packets;
                        counts_.trace.control_bytes += pkt.payload.size();
                        break;
                      case sim_detail::ArrivalClass::kFirstUser:
                        ++counts_.trace.user_packets;
                        counts_.trace.tag_bytes += pkt.payload.size();
                        record(pkt.dst,
                               {pkt.user_msg, EventKind::kReceive});
                        break;
                      case sim_detail::ArrivalClass::kDuplicate:
                        ++counts_.trace.duplicate_arrivals;
                        break;
                    }
                  });
  } else {
    const ProcessId p = tiebreak_owner(top.tiebreak);
    ++counts_.timer_fires;
    protocols_[local_of(p)]->on_timer(top.payload);
  }
}

void Shard::record(ProcessId at, SystemEvent e) {
  eng_->trace_.record_shard_local(at, e, now_);
  if (e.kind == EventKind::kInvoke) {
    ++counts_.trace.invoked;
  } else if (e.kind == EventKind::kDeliver) {
    ++counts_.trace.delivered;
  }
  if (prof_ != nullptr) ++prof_->events;
  if (inline_sink_ != nullptr) {
    inline_sink_->record(at, e, now_, cur_tiebreak_);
    return;
  }
  if (buffering_) obs_.push_back({now_, cur_tiebreak_, at, false, e, 0, {}});
}

void Shard::trip_cap() {
  int expected = -1;
  eng_->cap_shard_.compare_exchange_strong(expected, static_cast<int>(id_),
                                           std::memory_order_acq_rel);
  eng_->abort_.store(true, std::memory_order_release);
}

void Shard::send_packet(ProcessId from, Packet packet) {
  packet.src = from;
  assert(packet.dst < eng_->n_processes_);
  assert((packet.is_control ||
          eng_->universe_[packet.user_msg].src == from) &&
         "user packet emitted by the wrong process");
  switch (sim_detail::classify_send(packet, eng_->send_seen_)) {
    case sim_detail::SendClass::kControl:
      break;
    case sim_detail::SendClass::kFirstSend:
      record(from, {packet.user_msg, EventKind::kSend});
      break;
    case sim_detail::SendClass::kRetransmission:
      ++counts_.trace.retransmissions;
      break;
  }
  // Dropped packets consume a key and a loss draw but no channel-delay
  // draw, so every partition of the processes draws the same streams.
  const std::uint64_t tiebreak = make_tiebreak(
      EntryKind::kArrival, from, emit_counter_[local_of(from)]++);
  if (eng_->options_.network.loss_probability > 0 &&
      loss_rngs_[local_of(from)].chance(
          eng_->options_.network.loss_probability)) {
    ++counts_.trace.drops;
    return;
  }
  const SimTime at = network_.arrival_time(from, packet.dst, now_);
  const std::size_t dst_shard = packet.dst % eng_->n_shards_;
  if (dst_shard == id_) {
    heap_.push({at, tiebreak, alloc_slot(std::move(packet))});
    note_heap_depth();
  } else {
    eng_->route(id_, dst_shard, {at, tiebreak, std::move(packet)});
  }
}

void Shard::set_timer(ProcessId at, SimTime delay, std::uint64_t cookie) {
  const std::uint64_t tiebreak = make_tiebreak(
      EntryKind::kTimer, at, timer_counter_[local_of(at)]++);
  heap_.push({now_ + delay, tiebreak, cookie});
  note_heap_depth();
}

void Shard::deliver(ProcessId at, MessageId msg) {
  assert(eng_->universe_[msg].dst == at && "delivery at the wrong process");
  record(at, {msg, EventKind::kDeliver});
}

void Shard::hold(ProcessId at, MessageId msg, const HoldReason& reason) {
  if (inline_sink_ != nullptr) {
    inline_sink_->hold(at, msg, reason, now_, cur_tiebreak_);
    return;
  }
  if (!wants_hold_reasons()) return;
  // With several shards the sink infers the hold phase (send vs
  // delivery) at replay time from the merged event order: reading
  // receive_seen_ here would race with the destination shard.
  obs_.push_back({now_, cur_tiebreak_, at, true, {}, msg, reason});
}

bool Shard::wants_hold_reasons() const {
  return eng_->sink_.attribution_active() || eng_->sink_.writer_active();
}

std::size_t Shard::process_count() const { return eng_->process_count(); }

const Message& Shard::message(MessageId msg) const {
  return eng_->message(msg);
}

void Shard::drain_inbox() {
  std::uint64_t spilled_in = 0;
  for (std::size_t from = 0; from < eng_->n_shards_; ++from) {
    if (from == id_) continue;
    SpscRing<CrossMsg>& ring = *eng_->rings_[from * eng_->n_shards_ + id_];
    CrossMsg msg;
    std::uint64_t popped = 0;
    while (ring.try_pop(msg)) {
      admit(std::move(msg));
      ++popped;
    }
    if (prof_ != nullptr) {
      if (popped == 0) {
        ++prof_->ring_empty_polls;
      } else if (popped > prof_->ring_occupancy_hwm) {
        prof_->ring_occupancy_hwm = popped;
      }
    }
    auto& spill = eng_->spills_[from * eng_->n_shards_ + id_];
    spilled_in += spill.size();
    for (CrossMsg& spilled : spill) admit(std::move(spilled));
    spill.clear();
  }
  if (prof_ != nullptr) {
    prof_->spill_drained += spilled_in;
    if (pending_empty_stall_) {
      // The zero-progress window from before this barrier: if spilled
      // packets arrived only now, the ring was the bottleneck.
      if (spilled_in > 0) {
        ++prof_->stall_backpressure;
      } else {
        ++prof_->stall_empty;
      }
      pending_empty_stall_ = false;
    }
  }
}

void Shard::publish_slot() {
  ShardSlot& slot = eng_->slots_[id_];
  SimTime local_min = kInf;
  if (invoke_pos_ < invokes_.size()) local_min = invokes_[invoke_pos_].time;
  if (!heap_.empty()) local_min = std::min(local_min, heap_.top().time);
  slot.local_min = local_min;
  slot.processed = processed_;
  slot.invoked = counts_.trace.invoked;
  slot.delivered = counts_.trace.delivered;
  slot.invokes_left = invokes_.size() - invoke_pos_;
}

void ShardHost::send_packet(Packet packet) {
  shard_->send_packet(self_, std::move(packet));
}
void ShardHost::deliver(MessageId msg) { shard_->deliver(self_, msg); }
void ShardHost::set_timer(SimTime delay, std::uint64_t cookie) {
  shard_->set_timer(self_, delay, cookie);
}
SimTime ShardHost::now() const { return shard_->now(); }
std::size_t ShardHost::process_count() const {
  return shard_->process_count();
}
const Message& ShardHost::message(MessageId msg) const {
  return shard_->message(msg);
}
void ShardHost::hold(MessageId msg, const HoldReason& reason) {
  shard_->hold(self_, msg, reason);
}
bool ShardHost::wants_hold_reasons() const {
  return shard_->wants_hold_reasons();
}

/// Resolve SimOptions::shards to the shard count actually run: clamp to
/// the process count, auto-detect on 0, and force one shard when the
/// conservative lookahead is non-positive (zero base delay would allow
/// same-window cross-shard arrivals).
std::size_t resolve_shards(const SimOptions& options,
                           std::size_t n_processes) {
  std::size_t shards = options.shards;
  if (shards == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    shards = hw == 0 ? 1 : hw;
  }
  shards = std::min(shards, n_processes == 0 ? std::size_t{1} : n_processes);
  if (Network::lookahead(options.network) <= 0) shards = 1;
  return std::max<std::size_t>(shards, 1);
}

}  // namespace

SimResult simulate(const Workload& workload, const ProtocolFactory& factory,
                   std::size_t n_processes, const SimOptions& options) {
  const std::size_t shards = resolve_shards(options, n_processes);
  std::size_t workers = options.shard_workers;
  if (workers == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : hw;
  }
  ShardedEngine engine(workload, factory, n_processes, options, shards,
                       std::min(workers, shards));
  return engine.run();
}

}  // namespace msgorder
