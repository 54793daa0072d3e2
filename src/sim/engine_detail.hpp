// Internals of the simulator engine: the deterministic total-order key
// every shard schedules by, the arrival / send classification steps it
// shares with the exhaustive verifier, the per-shard counter block, and
// the ObsSink that fans recorded events out to the observability layer.
//
// The determinism contract.  Every queue entry carries a 64-bit
// tiebreak packing (entry kind, owning process, per-owner counter):
//
//    bits 63..62  kind rank   (invoke=0 < arrival=1 < timer=2)
//    bits 61..38  owner       (invokes/arrivals: the source process;
//                              timers: the process the timer fires at)
//    bits 37..0   counter     (invokes: workload index; arrivals: the
//                              source's emission counter; timers: the
//                              owner's timer counter)
//
// Entries are processed in (time, tiebreak) order.  With positive
// lookahead L (= minimum channel delay) every entry inserted while
// handling the current one has a strictly larger key — arrivals land at
// time >= now + L > now, and timers fire at the same process with a
// higher kind rank or a larger counter — so popping a priority queue in
// key order and merging per-shard streams sorted by key yield the SAME
// global sequence.  That is why the trace is bit-identical at every
// shard count.  With L <= 0 a zero-delay arrival could be inserted
// *behind* already-processed keys of another shard, so such runs use
// one shard (shards_used == 1), whose heap orders every entry, with
// windows of one entry each.
#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/observability.hpp"
#include "src/obs/observer.hpp"
#include "src/protocols/protocol.hpp"
#include "src/sim/trace.hpp"
#include "src/util/rng.hpp"

namespace msgorder::sim_detail {

enum class EntryKind : std::uint8_t { kInvoke = 0, kArrival = 1, kTimer = 2 };

constexpr std::uint64_t kCounterBits = 38;
constexpr std::uint64_t kOwnerBits = 24;
constexpr std::uint64_t kCounterMask = (std::uint64_t{1} << kCounterBits) - 1;
constexpr std::uint64_t kOwnerMask = (std::uint64_t{1} << kOwnerBits) - 1;

inline std::uint64_t make_tiebreak(EntryKind kind, ProcessId owner,
                                   std::uint64_t counter) {
  return (static_cast<std::uint64_t>(kind) << (kOwnerBits + kCounterBits)) |
         ((static_cast<std::uint64_t>(owner) & kOwnerMask) << kCounterBits) |
         (counter & kCounterMask);
}

inline EntryKind tiebreak_kind(std::uint64_t tiebreak) {
  return static_cast<EntryKind>(tiebreak >> (kOwnerBits + kCounterBits));
}

inline ProcessId tiebreak_owner(std::uint64_t tiebreak) {
  return static_cast<ProcessId>((tiebreak >> kCounterBits) & kOwnerMask);
}

/// How one arriving packet is classified — identically in the
/// simulator and the exhaustive verifier.
enum class ArrivalClass : std::uint8_t { kControl, kFirstUser, kDuplicate };

/// Apply one packet arrival to its destination protocol: THE
/// delivery-application step, shared by the simulator and the
/// exhaustive verifier so that a verified schedule and a simulated one
/// execute identical protocol code.  `on_class` receives the
/// classification before dispatch (record x.r* / bump counters); the
/// destination protocol then sees the packet exactly once per arrival,
/// duplicates included (the reliability layer depends on that).
template <class Seen, class OnClass>
inline void apply_arrival(Protocol& dst_protocol, const Packet& pkt,
                          Seen& receive_seen, OnClass&& on_class) {
  if (pkt.is_control) {
    on_class(ArrivalClass::kControl);
  } else if (receive_seen[pkt.user_msg] == 0) {
    receive_seen[pkt.user_msg] = 1;
    on_class(ArrivalClass::kFirstUser);
  } else {
    on_class(ArrivalClass::kDuplicate);
  }
  dst_protocol.on_packet(pkt);
}

/// Emission-side classification: the first user-packet emission is the
/// send event x.s; later emissions of the same message are
/// retransmissions; control packets are neither.
enum class SendClass : std::uint8_t { kControl, kFirstSend, kRetransmission };

template <class Seen>
inline SendClass classify_send(const Packet& pkt, Seen& send_seen) {
  if (pkt.is_control) return SendClass::kControl;
  if (send_seen[pkt.user_msg] == 0) {
    send_seen[pkt.user_msg] = 1;
    return SendClass::kFirstSend;
  }
  return SendClass::kRetransmission;
}

/// Per-process packet-loss stream, independent of the shard count: the
/// loss decision for the k-th emission of process p depends only on
/// (seed, p, k), never on global interleaving.
inline Rng per_process_loss_rng(std::uint64_t seed, ProcessId p) {
  std::uint64_t z = (seed ^ 0xa5a5a5a5deadbeefULL) +
                    (static_cast<std::uint64_t>(p) + 1) *
                        0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

/// Counters a shard accumulates privately during its run; folded into
/// the Trace and the MetricsRegistry once, at report time.
struct EngineCounters {
  TraceCounts trace;
  std::size_t timer_fires = 0;
};

/// One buffered observability notification (runs with several shards
/// only): a recorded system event or a reported hold, tagged with the
/// key of the queue entry whose handling produced it.  Sorting items by
/// (time, entry_tiebreak) — keeping each shard's intra-entry order
/// stable — reproduces the one-shard notification order exactly.
struct ObsItem {
  SimTime time = 0;
  std::uint64_t entry_tiebreak = 0;
  ProcessId at = 0;
  bool is_hold = false;
  SystemEvent event;        // !is_hold
  MessageId held_msg = 0;   // is_hold
  HoldReason reason;        // is_hold
};

/// Fans recorded events out to instruments, flight recorder, delay
/// attribution, trace log and observers.  A one-shard run feeds it
/// inline per event; with several shards the engine feeds it through
/// replay() in merge order.  Trace writes stay in the engines — the sink
/// only *reads* trace times for the latency histograms.
class ObsSink {
 public:
  /// Wires up the sink and (when observability is attached) calls
  /// begin_run(n_messages) to size a fresh attribution table.
  ObsSink(Observability* observability, const ObserverMux* observers,
          const Trace* trace, std::size_t n_messages);

  bool attribution_active() const { return attribution_ != nullptr; }
  bool has_recorder() const { return recorder_ != nullptr; }
  bool tracelog_active() const { return tracelog_ != nullptr; }

  /// Start this run's tracelog (no-op without one): truncates the file
  /// and writes the msgorder.tracelog/1 header.  Call before the first
  /// event is recorded.
  void open_tracelog(const char* engine, std::size_t shards,
                     std::size_t workers, SimTime lookahead,
                     std::uint64_t seed, std::size_t n_processes);
  /// Flush the tracelog and fold its events/bytes counters into the
  /// instruments.  Idempotent per run; call on every engine exit path
  /// (after the invariant notes, so they land in the log).
  void finish_tracelog();

  /// Engine profiler (ISSUE 7); nullptr unless
  /// ObservabilityOptions::profiling was set.  The owning engine resets
  /// it with the run topology and fills the rows directly.
  SimProfile* profile() const { return profile_; }

  /// True when a run with several shards must buffer ObsItems: some
  /// consumer needs events in the deterministic merge order.
  bool buffering_needed() const {
    return instruments_ != nullptr || recorder_ != nullptr ||
           attribution_ != nullptr || tracelog_ != nullptr ||
           (observers_ != nullptr && !observers_->empty());
  }

  /// Dispatch one recorded event.  `tiebreak` is the deterministic key
  /// of the queue entry being handled (logged verbatim in the
  /// tracelog).
  void record(ProcessId at, SystemEvent e, SimTime t,
              std::uint64_t tiebreak);

  /// Dispatch one hold report.  `received` — whether x.r* was already
  /// recorded for msg — selects the attribution phase.
  void hold(ProcessId at, MessageId msg, const HoldReason& reason,
            bool received, SimTime t, std::uint64_t tiebreak);

  /// Flight-recorder + tracelog annotation (no-op without either).
  void note(std::string text, SimTime t);

  /// Fold the run's packet / timer counters into the instruments; the
  /// engine calls it once, at finalize.
  void add_counts(const EngineCounters& counters);

  /// Replay buffered items in merge order: `items` must be sorted by
  /// (time, entry_tiebreak).  Rebuilds the receive-seen bitmap on the
  /// fly so hold phases match the one-shard inference.
  void replay(const std::vector<ObsItem>& items, std::size_t n_messages);

 private:
  void update_instruments(SystemEvent e);
  void publish_closed(const HoldSegment* seg);

  const ObserverMux* observers_ = nullptr;
  const Trace* trace_ = nullptr;
  SimInstruments* instruments_ = nullptr;
  DelayAttribution* attribution_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  SimProfile* profile_ = nullptr;
  TraceLogWriter* tracelog_ = nullptr;
  /// The Observability label, used as the tracelog header's protocol.
  std::string label_;
  bool tracelog_finished_ = false;
};

}  // namespace msgorder::sim_detail
