// ISSUE 3 equivalence suite: the word-parallel / incremental checker
// engine must be observationally identical to the seed implementations
// it replaces.  Three pairings, each driven over randomized runs:
//   * OnlineMonitor kPruned vs kNaive on the same simulated feed —
//     same verdict, same first witness, same detection event;
//   * IncrementalSyncChecker vs the batch sync_timestamps oracle;
//   * find_violation / in_causal / in_sync vs their *_naive references.
// The differential fuzz at the end drives the first and last pairings
// with random predicates on runs small enough that the distinct-message
// rule decides many verdicts — the case the engine's nogoods and chain
// dominance must get right.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "src/checker/limit_sets.hpp"
#include "src/checker/monitor.hpp"
#include "src/checker/sync_incremental.hpp"
#include "src/checker/violation.hpp"
#include "src/poset/lift.hpp"
#include "src/poset/run_generator.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/fifo.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"

namespace msgorder {
namespace {

std::vector<ForbiddenPredicate> equivalence_specs() {
  return {causal_ordering(), fifo(), sync_crown(2), sync_crown(3),
          k_weaker_causal(1)};
}

/// Feed a complete scheduled run to an observer-style callback in one
/// linearization of its causality (events of a process stay in process
/// order, sends precede their deliveries — any topological order of the
/// closed poset qualifies).
template <typename Fn>
void feed_linearized(const UserRun& run, Fn&& fn) {
  const auto order = run.order().topological_order();
  ASSERT_TRUE(order.has_value());
  for (const std::size_t idx : *order) {
    const UserEvent e = UserRun::event_of_index(idx);
    fn(run.process_of(e), SystemEvent{e.msg, to_system_kind(e.kind)});
  }
}

TEST(MonitorEquivalence, PrunedMatchesNaiveOnSimulatedFeeds) {
  for (const ForbiddenPredicate& spec : equivalence_specs()) {
    for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
      Rng rng(seed);
      WorkloadOptions wopts;
      wopts.n_processes = 4;
      wopts.n_messages = 40;
      wopts.mean_gap = 0.3;
      wopts.red_fraction = 0.3;  // exercise color constraints
      const Workload workload = random_workload(wopts, rng);
      auto pruned = std::make_shared<OnlineMonitor>(
          workload_universe(workload), spec, MonitorSearchMode::kPruned);
      auto naive = std::make_shared<OnlineMonitor>(
          workload_universe(workload), spec, MonitorSearchMode::kNaive);
      SimOptions sopts;
      sopts.seed = seed + 100;
      sopts.network.jitter_mean = 2.0;
      sopts.observers.add(monitor_observer(pruned));
      sopts.observers.add(monitor_observer(naive));
      const SimResult result = simulate(workload, AsyncProtocol::factory(),
                                        wopts.n_processes, sopts);
      ASSERT_TRUE(result.completed) << result.error;

      EXPECT_EQ(pruned->violated(), naive->violated())
          << spec.to_string() << " seed " << seed;
      EXPECT_EQ(pruned->violation_count(), naive->violation_count());
      EXPECT_EQ(pruned->events_to_detection(),
                naive->events_to_detection());
      EXPECT_EQ(pruned->first_witness(), naive->first_witness());
    }
  }
}

TEST(MonitorEquivalence, PrunedMatchesNaiveOnScheduledRuns) {
  for (const ForbiddenPredicate& spec : equivalence_specs()) {
    for (const std::uint64_t seed : {11, 12, 13}) {
      Rng rng(seed);
      RandomRunOptions opts;
      opts.n_processes = 5;
      opts.n_messages = 24;
      opts.send_bias = 0.8;  // deep reorderings
      opts.red_fraction = 0.25;
      const UserRun run = random_scheduled_run(opts, rng);
      OnlineMonitor pruned(run.messages(), spec,
                           MonitorSearchMode::kPruned);
      OnlineMonitor naive(run.messages(), spec, MonitorSearchMode::kNaive);
      feed_linearized(run, [&](ProcessId p, SystemEvent e) {
        EXPECT_EQ(pruned.on_event(p, e, 0.0), naive.on_event(p, e, 0.0));
      });
      EXPECT_EQ(pruned.violated(), naive.violated());
      EXPECT_EQ(pruned.violation_count(), naive.violation_count());
      EXPECT_EQ(pruned.first_witness(), naive.first_witness());
      // The monitor's final verdict must also agree with the offline
      // oracle on the complete run.
      EXPECT_EQ(pruned.violated(), find_violation(run, spec).has_value());
    }
  }
}

TEST(IncrementalSync, MatchesBatchOracleOnSimulatedFeeds) {
  for (const bool fifo_protocol : {false, true}) {
    for (const std::uint64_t seed : {21, 22, 23, 24}) {
      Rng rng(seed);
      WorkloadOptions wopts;
      wopts.n_processes = 4;
      wopts.n_messages = 60;
      wopts.mean_gap = 0.4;
      const Workload workload = random_workload(wopts, rng);
      auto checker =
          std::make_shared<IncrementalSyncChecker>(wopts.n_messages);
      SimOptions sopts;
      sopts.seed = seed;
      sopts.network.jitter_mean = 1.5;
      sopts.observers.add(sync_observer(checker));
      const SimResult result = simulate(
          workload,
          fifo_protocol ? FifoProtocol::factory() : AsyncProtocol::factory(),
          wopts.n_processes, sopts);
      ASSERT_TRUE(result.completed) << result.error;
      const auto run = result.trace.to_user_run();
      ASSERT_TRUE(run.has_value());
      EXPECT_EQ(checker->in_sync(), in_sync(*run)) << "seed " << seed;
      EXPECT_EQ(checker->in_sync(),
                sync_timestamps(*run).has_value());
    }
  }
}

TEST(IncrementalSync, MatchesBatchOracleOnScheduledRuns) {
  for (const std::uint64_t seed : {31, 32, 33, 34, 35, 36}) {
    Rng rng(seed);
    RandomRunOptions opts;
    opts.n_processes = 4;
    opts.n_messages = 30;
    // Low bias keeps some runs synchronous, so both verdicts appear.
    opts.send_bias = (seed % 2 == 0) ? 0.1 : 0.9;
    const UserRun run = random_scheduled_run(opts, rng);
    IncrementalSyncChecker checker(run.message_count());
    feed_linearized(run, [&](ProcessId p, SystemEvent e) {
      checker.on_event(p, e);
    });
    EXPECT_EQ(checker.in_sync(), in_sync(run)) << "seed " << seed;
  }
}

TEST(LimitSetCheckers, WordParallelMatchesNaive) {
  for (const std::uint64_t seed : {41, 42, 43, 44, 45}) {
    Rng rng(seed);
    RandomRunOptions opts;
    opts.n_processes = 4;
    opts.n_messages = 36;
    opts.send_bias = (seed % 2 == 0) ? 0.2 : 0.8;
    const UserRun scheduled = random_scheduled_run(opts, rng);
    const UserRun abstract =
        random_abstract_run(20, /*density=*/0.15, rng);
    for (const UserRun* run : {&scheduled, &abstract}) {
      EXPECT_EQ(in_causal(*run), in_causal_naive(*run)) << seed;
      EXPECT_EQ(in_sync(*run), in_sync_naive(*run)) << seed;
    }
  }
}

TEST(OracleEquivalence, EngineFindsTheSameFirstWitnessAcrossZoo) {
  for (const std::uint64_t seed : {51, 52, 53}) {
    Rng rng(seed);
    RandomRunOptions opts;
    opts.n_processes = 5;
    opts.n_messages = 18;
    opts.send_bias = 0.8;
    opts.red_fraction = 0.3;
    const UserRun run = random_scheduled_run(opts, rng);
    for (const NamedSpec& named : spec_zoo()) {
      const auto fast = find_violation(run, named.predicate);
      const auto slow = find_violation_naive(run, named.predicate);
      EXPECT_EQ(fast, slow) << named.name << " seed " << seed;
    }
  }
}

/// A random forbidden predicate of arity 2-5: half the time over a
/// crown-like cycle skeleton (the shape whose nogoods are reused most),
/// plus random cross and self conjuncts, cross-variable process
/// equalities and color constraints.
ForbiddenPredicate random_predicate(Rng& rng) {
  const auto kind = [&] {
    return rng.chance(0.5) ? UserEventKind::kSend : UserEventKind::kDeliver;
  };
  ForbiddenPredicate p;
  p.arity = static_cast<std::size_t>(rng.range(2, 5));
  const auto var = [&] { return static_cast<std::size_t>(rng.below(p.arity)); };
  if (rng.chance(0.5)) {
    const std::size_t closing = rng.chance(0.7) ? p.arity : p.arity - 1;
    for (std::size_t i = 0; i < closing; ++i) {
      p.conjuncts.push_back({i, UserEventKind::kSend, (i + 1) % p.arity,
                             UserEventKind::kDeliver});
    }
  }
  for (std::uint64_t i = rng.below(p.arity + 1); i > 0; --i) {
    const std::size_t lhs = var();
    const std::size_t rhs = rng.chance(0.15) ? lhs : var();
    p.conjuncts.push_back({lhs, kind(), rhs, kind()});
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    p.process_constraints.push_back({var(), kind(), var(), kind()});
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    p.color_constraints.push_back({var(), static_cast<int>(rng.below(2))});
  }
  return p;
}

/// A random forbidden predicate of arity 3-4 over a chain skeleton
/// (k-weaker: x_i.s |> x_i+1.s, closed by x_last.r |> x_0.r) or a crown
/// skeleton (x_i.s |> x_i+1.r, cyclic), with some conjuncts reversed or
/// given a random endpoint kind, plus at times a cross-variable process
/// equality or a color constraint: the shapes whose levels chain
/// dominance prunes, in both directions, and the ones that make a level
/// ineligible.
ForbiddenPredicate random_chain_predicate(Rng& rng) {
  const auto kind = [&] {
    return rng.chance(0.5) ? UserEventKind::kSend : UserEventKind::kDeliver;
  };
  ForbiddenPredicate p;
  p.arity = static_cast<std::size_t>(rng.range(3, 4));
  const auto var = [&] { return static_cast<std::size_t>(rng.below(p.arity)); };
  const bool crown = rng.chance(0.5);
  for (std::size_t i = 0; i < p.arity; ++i) {
    const bool closing = i + 1 == p.arity;
    Conjunct c{i, closing && !crown ? UserEventKind::kDeliver
                                    : UserEventKind::kSend,
               (i + 1) % p.arity,
               closing || crown ? UserEventKind::kDeliver
                                : UserEventKind::kSend};
    if (rng.chance(0.15)) c.p = kind();
    if (rng.chance(0.15)) c.q = kind();
    if (rng.chance(0.25)) c = {c.rhs, c.q, c.lhs, c.p};
    p.conjuncts.push_back(c);
  }
  if (rng.chance(0.3)) {
    p.process_constraints.push_back({var(), kind(), var(), kind()});
  }
  if (rng.chance(0.3)) {
    p.color_constraints.push_back({var(), static_cast<int>(rng.below(2))});
  }
  return p;
}

/// One differential case: find_violation must return
/// find_violation_naive's witness, and (when `monitor`) a kPruned and a
/// kNaive monitor fed the run until either fires must agree on the first
/// witness, the detection event and the offline verdict.  Returns
/// whether the run violates the spec.
bool differential_case(const ForbiddenPredicate& spec, const UserRun& run,
                       bool monitor, WitnessEngine::Stats& stats, int i) {
  const auto slow = find_violation_naive(run, spec);
  EXPECT_EQ(find_violation(run, spec), slow)
      << spec.to_string() << " case " << i;
  if (!monitor) return slow.has_value();

  OnlineMonitor pruned(run.messages(), spec, MonitorSearchMode::kPruned);
  OnlineMonitor naive(run.messages(), spec, MonitorSearchMode::kNaive);
  pruned.set_engine_stats(&stats);
  feed_linearized(run, [&](ProcessId p, SystemEvent e) {
    if (pruned.violated() || naive.violated()) return;
    pruned.on_event(p, e, 0.0);
    naive.on_event(p, e, 0.0);
  });
  EXPECT_EQ(pruned.first_witness(), naive.first_witness())
      << spec.to_string() << " case " << i;
  EXPECT_EQ(pruned.events_to_detection(), naive.events_to_detection())
      << spec.to_string() << " case " << i;
  EXPECT_EQ(pruned.violated(), slow.has_value())
      << spec.to_string() << " case " << i;
  return slow.has_value();
}

// 100,000 random (predicate, run) cases with at most arity + 4
// messages, then a slice of 4,000 chain and crown predicates of arity
// 3-4 on runs of 10-24 messages, where process lines are long enough for
// chain dominance to prune.  Every eighth case also feeds the run to a
// kPruned and a kNaive monitor (the seed's per-event scan, which
// dominates the cost).  An engine that records nogoods without the
// distinctness rule fails this on thousands of cases; so does one that
// prunes a chain without the self-hit guard, across mixed directions, or
// past a process equality on the other endpoint.
TEST(DifferentialFuzz, EngineMatchesNaiveOnRandomPredicatesAndSmallRuns) {
  constexpr int kCases = 100'000;
  constexpr int kChainCases = 4'000;
  constexpr int kMonitorEvery = 8;
  Rng rng(2026);
  WitnessEngine::Stats stats;
  int violated = 0;
  for (int i = 0; i < kCases; ++i) {
    const ForbiddenPredicate spec = random_predicate(rng);
    RandomRunOptions opts;
    opts.n_processes = static_cast<std::size_t>(rng.range(2, 4));
    opts.n_messages = spec.arity + static_cast<std::size_t>(rng.below(5));
    opts.send_bias = rng.uniform01();
    opts.red_fraction = 0.4;
    const UserRun run = random_scheduled_run(opts, rng);
    violated += differential_case(spec, run, i % kMonitorEvery == 0, stats,
                                  i)
                    ? 1
                    : 0;
    if (HasFailure()) return;
  }
  Rng chain_rng(2027);
  int chain_violated = 0;
  for (int i = 0; i < kChainCases; ++i) {
    const ForbiddenPredicate spec = random_chain_predicate(chain_rng);
    RandomRunOptions opts;
    opts.n_processes = static_cast<std::size_t>(chain_rng.range(2, 4));
    opts.n_messages = static_cast<std::size_t>(chain_rng.range(10, 24));
    opts.send_bias = chain_rng.uniform01();
    opts.red_fraction = 0.4;
    const UserRun run = random_scheduled_run(opts, chain_rng);
    chain_violated += differential_case(spec, run, i % kMonitorEvery == 0,
                                        stats, kCases + i)
                          ? 1
                          : 0;
    if (HasFailure()) return;
  }
  // Both verdicts are common, and the nogood and dominance paths ran.
  EXPECT_GT(violated, kCases / 10);
  EXPECT_LT(violated, kCases - kCases / 10);
  EXPECT_GT(chain_violated, kChainCases / 10);
  EXPECT_LT(chain_violated, kChainCases - kChainCases / 10);
  EXPECT_GT(stats.nogoods, 0u);
  EXPECT_GT(stats.nogood_prunes, 0u);
  EXPECT_GT(stats.dominance_prunes - stats.dominance_target_prunes, 0u);
  EXPECT_GT(stats.dominance_target_prunes, 0u);
  EXPECT_GT(stats.dominance_blocked, 0u);
  std::printf("fuzz: %d/%d and %d/%d violated; %llu nogoods, %llu source "
              "+ %llu target dominance prunes, %llu blocked\n",
              violated, kCases, chain_violated, kChainCases,
              static_cast<unsigned long long>(stats.nogoods),
              static_cast<unsigned long long>(stats.dominance_prunes -
                                              stats.dominance_target_prunes),
              static_cast<unsigned long long>(stats.dominance_target_prunes),
              static_cast<unsigned long long>(stats.dominance_blocked));
}

}  // namespace
}  // namespace msgorder
