// An online specification monitor: fed the system events of a running
// execution (via SimOptions::observer), it maintains the user-view
// causality incrementally and reports the first moment a forbidden
// pattern completes — with the witness and the timestamp, while the
// offline oracle only judges finished runs.
//
// Incremental core: every new user event is maximal, so its ancestor
// set is the union of its process predecessor's ancestors and (for a
// delivery) the matching send's ancestors.  Old relations never change,
// hence any *newly completed* pattern must bind one variable to the new
// event's message: each event runs one search per variable with that
// variable pinned to it.  The seed scan (kNaive) pays O(|M|^(arity-1))
// per pinned search; the WitnessEngine's nogoods (search.hpp) cut a
// pinned sync-crown search to O(|M|) DFS nodes at any crown size, and
// its chain dominance a pinned k-weaker search to O(P) bindings per
// level.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/checker/search.hpp"
#include "src/checker/violation.hpp"
#include "src/obs/observer.hpp"
#include "src/poset/event.hpp"
#include "src/spec/predicate.hpp"
#include "src/util/bitmatrix.hpp"

namespace msgorder {

/// Which witness-search implementation the monitor runs per event.
/// kPruned (the default) is the bitset-pruned WitnessEngine; kNaive is
/// the seed's scan-every-message search, retained as the reference for
/// the equivalence tests and the before/after bench rows — both modes
/// produce identical verdicts, witnesses, and detection events.  There
/// is no cheaper per-event engine: every specification the paper
/// classifies relates events on different process lines, which no
/// per-process symbol stream can decide (DESIGN.md §9).
enum class MonitorSearchMode {
  kPruned,
  kNaive,
  kAutomaton,  // runs exactly as kPruned; kept only because perfbench names it
};

/// Monitor configuration.  batch_size > 1 defers the bitset engine's
/// witness searches: causality updates stay per-event, but the
/// (expensive) re-intersection runs once per `batch_size` user events as
/// a single unpinned search instead of one pinned search per event.
/// Witnesses are monotone — once a forbidden pattern completes it stays
/// completed — so the *verdict* is preserved exactly at batch
/// granularity; first_witness / detection event / violation_count are
/// reported as of the flush that first observes the violation.  Call
/// flush() after the last event to close a partial batch.  Applies to
/// kPruned; kNaive (the reference implementation) always searches per
/// event.  perfbench brace-initializes {mode, batch_size}: keep both.
struct MonitorOptions {
  MonitorSearchMode mode = MonitorSearchMode::kPruned;
  std::size_t batch_size = 1;
};

class OnlineMonitor {
 public:
  OnlineMonitor(std::vector<Message> universe,
                ForbiddenPredicate specification,
                MonitorSearchMode mode = MonitorSearchMode::kPruned);
  OnlineMonitor(std::vector<Message> universe,
                ForbiddenPredicate specification, MonitorOptions options);

  /// Feed the next system event (in execution order).  Invoke and
  /// receive events are ignored; sends and deliveries extend the user
  /// view.  Returns true if this event completed a (new) violation.
  bool on_event(ProcessId process, SystemEvent event, double time);

  /// Run any deferred batched search now (no-op when batch_size <= 1 or
  /// no user events are pending).  Returns true if the flush found a
  /// violation.  Call after the final event when batching.
  bool flush();

  /// Restore the post-construction state: matrices, presence, verdicts,
  /// and counters all reset (bench replay support).
  void reset();

  bool violated() const { return first_violation_.has_value(); }
  std::size_t violation_count() const { return violation_count_; }
  /// The first witness found and the time its last event executed.
  const std::optional<ViolationWitness>& first_witness() const {
    return first_violation_;
  }
  double first_violation_time() const { return first_violation_time_; }

  const ForbiddenPredicate& specification() const { return spec_; }

  // --- monitor cost observability (ISSUE 2) ---

  /// Measure wall time spent in on_event (steady_clock around each
  /// call; off by default because the clock reads dominate the cost of
  /// trivial events).
  void enable_timing(bool on = true) { timing_ = on; }
  /// Total system events fed so far (including ignored invoke/receive).
  std::uint64_t events_seen() const { return events_seen_; }
  /// Events fed up to and including the one that completed the first
  /// violation (0 when nothing fired yet) — the detection-latency
  /// metric of the run reports.
  std::uint64_t events_to_detection() const { return events_to_detection_; }
  /// Wall time accumulated inside on_event while timing was enabled.
  double on_event_seconds() const { return on_event_seconds_; }
  /// Number of on_event calls measured; divides on_event_seconds().
  std::uint64_t timed_events() const { return timed_events_; }

  /// Attach (nullptr: detach) a caller-owned stats sink to the pruned
  /// search engine — candidate populations, words scanned, prune rate
  /// (ISSUE 4).  No effect on what kNaive mode counts.
  void set_engine_stats(WitnessEngine::Stats* stats) {
    engine_.set_stats(stats);
  }

  /// Always reports compiled == false; kept only because perfbench reads it.
  struct AutomatonInfo {
    bool compiled = false;
  };
  AutomatonInfo automaton_info() const { return {}; }

  const MonitorOptions& options() const { return options_; }

  /// The monitor's view of causality so far (for tests).
  bool before(UserEvent a, UserEvent b) const;

 private:
  static std::size_t index(MessageId m, UserEventKind k) {
    return 2 * static_cast<std::size_t>(m) +
           (k == UserEventKind::kDeliver ? 1 : 0);
  }

  bool on_event_impl(ProcessId process, SystemEvent event, double time);
  bool flush_batch(double time);

  bool search_with_pin(std::size_t pinned_var, MessageId pinned_msg,
                       std::size_t next_var,
                       std::vector<MessageId>& assignment,
                       std::vector<bool>& used) const;
  bool conjuncts_hold(const std::vector<MessageId>& assignment,
                      std::size_t bound_upto, std::size_t pinned_var,
                      MessageId pinned_msg) const;

  std::vector<Message> universe_;
  ForbiddenPredicate spec_;
  MonitorOptions options_;
  /// The search mode events actually take: kNaive or kPruned.
  MonitorSearchMode mode_;
  /// The bitset-pruned search engine (holds the static candidate masks
  /// and all per-query scratch, so on_event never allocates).
  WitnessEngine engine_;
  /// ancestors_.get(e, a) == true iff a |> e.
  BitMatrix ancestors_;
  /// descendants_.get(e, d) == true iff e |> d — the transpose of
  /// ancestors_, maintained incrementally (a new event joins the
  /// descendant row of each of its ancestors) so the engine can slice
  /// candidate sets from either direction of a conjunct.
  BitMatrix descendants_;
  std::vector<bool> present_;
  /// Packed presence bitsets (bit m: m's send / delivery has happened).
  std::vector<std::uint64_t> present_send_;
  std::vector<std::uint64_t> present_deliver_;
  /// Last user event index per process, or -1.
  std::vector<long> last_event_;
  /// Hoisted per-event scratch for both search modes (ISSUE 3
  /// satellite: no per-event vector construction).
  std::vector<MessageId> assignment_scratch_;
  std::vector<bool> used_scratch_;
  std::optional<ViolationWitness> first_violation_;
  double first_violation_time_ = 0;
  std::size_t violation_count_ = 0;
  bool timing_ = false;
  std::uint64_t events_seen_ = 0;
  std::uint64_t events_to_detection_ = 0;
  std::uint64_t timed_events_ = 0;
  double on_event_seconds_ = 0;

  // --- batched search state ---
  std::size_t pending_in_batch_ = 0;
  double last_event_time_ = 0;
};

/// Adapter for the simulator's observer fan-out:
///   sopts.observers.add(monitor_observer(monitor));
SimObserver monitor_observer(std::shared_ptr<OnlineMonitor> monitor);

}  // namespace msgorder
