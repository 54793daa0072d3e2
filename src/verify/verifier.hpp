// The stateless model checker (ISSUE 10 tentpole): exhaustively explore
// every delivery interleaving a channel model allows for a protocol
// stack on a bounded scenario, and check at every reachable state that
//
//   * no complete run violates the stack's declared specification
//     (checked through the same satisfies()/find_violation() oracle the
//     simulator's conformance tests use),
//   * the stack never deadlocks: a terminal state with undelivered
//     messages is a counterexample,
//   * hold attribution is sound on every complete run (every reported
//     HoldReason is matched by the release the ISSUE-4 contract
//     promises — src/obs/hold_soundness.hpp), and
//   * the stack leaks no obligations: some complete state with all
//     protocol instances quiescent and no user packet in flight must be
//     reachable (a circulating idle token is fine; an undelivered
//     buffered message or unacked exchange is not).
//
// Exploration is depth-first and stateless: the only stored state is the
// visited set of state keys, and backtracking re-executes the schedule
// prefix.  It does so lazily — only right before a sibling action runs
// — so a frame that pops, or whose remaining actions are all asleep,
// costs no replay.  Deferring is exact because the state an execution
// enters depends only on its schedule, and for the same reason each
// frame keeps its state key and hands it back to the execution after a
// replay (Execution::restore_key), so the keys stay incremental across
// backtracking.  The search is reduced by
//
//   * sleep sets keyed on per-process independence — actions at
//     different processes touch disjoint protocol state and disjoint
//     (src, dst) channels, so they commute; timers stay dependent with
//     everything because their enabledness is globally gated — and
//   * visited-state subsumption: a state is pruned when it was already
//     explored with a sleep set no larger than the current one.  Keys
//     are exact tuples of interned component ids (execution.hpp), held
//     in an open-addressing table that compares whole tuples, with the
//     sleep sets in one arena: a collision would silently prune
//     unexplored behavior, and "verified" must mean verified.
//
// Sleep sets alone (unlike persistent sets) still visit every reachable
// state, so deadlock, leak, and quiescence detection remain exact; spec
// checks on one interleaving per Mazurkiewicz trace are sound because
// the delivered poset is a trace invariant.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/protocols/protocol.hpp"
#include "src/spec/predicate.hpp"
#include "src/verify/execution.hpp"
#include "src/verify/scenario.hpp"

namespace msgorder {

struct VerifyOptions {
  ChannelModel channel_model = ChannelModel::kReorder;
  /// Sleep-set partial-order reduction (sound to disable; slower).
  bool por = true;
  /// Visited-state subsumption cache.  Turning it off is the test
  /// oracle for acyclic targets (the exploration test compares the two
  /// graphs), not a fallback: uncached exploration is exponential on a
  /// stack with control cycles, since a circulating token re-explores
  /// every cycle until max_depth and then ends "bounded".
  bool state_cache = true;
  /// Stop after this many states with a "bounded" verdict (0 = none):
  /// the --quick budget.  Never produces a false "verified".
  std::size_t max_states = 0;
  /// Schedule-length cut-off for uncached runs, so an uncached cyclic
  /// stack ends "bounded" instead of recursing forever.  A net for the
  /// oracle runs, not a way to verify cyclic stacks uncached.
  std::size_t max_depth = 4096;
  /// Drop budget for ChannelModel::kLossy.
  std::size_t max_drops = 1;
};

/// Deterministic cost counters of one exploration (counts, not times,
/// so msgorder.verify/1 stays byte-comparable across builds).
struct VerifyCounters {
  /// Spec-oracle runs (one per distinct complete user view) and
  /// complete states answered by the spec memo instead.
  std::size_t spec_checks = 0;
  std::size_t spec_memo_hits = 0;
  /// Distinct entries of the state-key tables: host snapshots, channel
  /// contents, packets and history-trie nodes.
  std::size_t interned_hosts = 0;
  std::size_t interned_channels = 0;
  std::size_t interned_packets = 0;
  std::size_t interned_history_nodes = 0;
  /// Component lookups made while keying: host snapshots, channels and
  /// timer sets re-encoded, plus history steps added to the trie path.
  std::size_t reinterned = 0;

  VerifyCounters& operator+=(const VerifyCounters& o) {
    spec_checks += o.spec_checks;
    spec_memo_hits += o.spec_memo_hits;
    interned_hosts += o.interned_hosts;
    interned_channels += o.interned_channels;
    interned_packets += o.interned_packets;
    interned_history_nodes += o.interned_history_nodes;
    reinterned += o.reinterned;
    return *this;
  }
};

/// A failing schedule: replayable into a msgorder.tracelog/1 log.
struct VerifyCounterexample {
  std::string property;  // violation|deadlock|hold-unsound|control-leak
  std::string detail;
  std::vector<VerifyAction> schedule;
};

struct ScenarioResult {
  std::string scenario;
  /// verified | violation | deadlock | hold-unsound | control-leak |
  /// no-completion | bounded
  std::string verdict;
  std::string detail;
  std::size_t states = 0;
  std::size_t transitions = 0;
  /// Terminal all-delivered states reached (distinct explored maximal
  /// runs; the enumeration tests pin exact values for this).  Cyclic
  /// stacks (a circulating token) have no terminal states, so this
  /// stays 0 for them — see complete_states.
  std::size_t complete_runs = 0;
  /// States entered with every message delivered (terminal or not);
  /// >= 1 whenever the scenario is completable at all.
  std::size_t complete_states = 0;
  std::size_t max_depth_seen = 0;
  /// Backtracking cost: prefix re-executions, and the actions they
  /// re-applied (a replay of the empty prefix is a bare reset).
  std::size_t replays = 0;
  std::size_t replayed_actions = 0;
  VerifyCounters counters;
  /// State caching was requested but some protocol lacks snapshot().
  bool uncached = false;
  std::optional<VerifyCounterexample> counterexample;

  bool ok() const { return verdict == "verified" || verdict == "bounded"; }
};

/// Per-stack rollup over a scenario set.
struct StackReport {
  std::string stack;
  std::string verdict;  // worst scenario verdict
  std::vector<ScenarioResult> scenarios;
  std::size_t states_total = 0;
  std::size_t transitions_total = 0;
  std::size_t replays_total = 0;
  std::size_t replayed_actions_total = 0;
  VerifyCounters counters_total;

  bool ok() const { return verdict == "verified" || verdict == "bounded"; }
};

/// Exhaustively verify one stack on one scenario.
ScenarioResult verify_scenario(const Scenario& scenario,
                               const ProtocolFactory& factory,
                               const CompositeSpec& spec,
                               const VerifyOptions& options);

/// Verify one stack across a scenario set, aggregating the worst
/// verdict (violation-class verdicts dominate bounded dominates
/// verified).  Stops at the first counterexample.
StackReport verify_stack(const std::string& stack_name,
                         const ProtocolFactory& factory,
                         const CompositeSpec& spec,
                         const std::vector<Scenario>& scenarios,
                         const VerifyOptions& options);

}  // namespace msgorder
