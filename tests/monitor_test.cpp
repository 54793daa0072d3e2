// The online monitor: incremental causality, first-violation detection,
// agreement with the offline oracle over simulations, reset(), the
// witness search's descending probe on target levels, and the batched
// search.
#include <gtest/gtest.h>

#include <tuple>

#include "src/checker/monitor.hpp"
#include "src/checker/search.hpp"
#include "src/checker/violation.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/causal_rst.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"
#include "tests/random_feed.hpp"

namespace msgorder {
namespace {

constexpr EventKind S = EventKind::kSend;
constexpr EventKind R = EventKind::kReceive;
constexpr EventKind D = EventKind::kDeliver;
constexpr EventKind I = EventKind::kInvoke;

TEST(OnlineMonitor, DetectsCausalViolationAtTheCompletingEvent) {
  // Channel P0 -> P1, message 1 overtakes message 0.
  std::vector<Message> universe = {{0, 0, 1, 0}, {1, 0, 1, 0}};
  OnlineMonitor monitor(universe, causal_ordering());
  EXPECT_FALSE(monitor.on_event(0, {0, I}, 0));
  EXPECT_FALSE(monitor.on_event(0, {0, S}, 1));
  EXPECT_FALSE(monitor.on_event(0, {1, S}, 2));
  EXPECT_FALSE(monitor.on_event(1, {1, R}, 3));
  EXPECT_FALSE(monitor.on_event(1, {1, D}, 4));
  EXPECT_FALSE(monitor.violated());
  // Delivering message 0 now completes (x.s |> y.s) & (y.r |> x.r).
  EXPECT_TRUE(monitor.on_event(1, {0, D}, 5));
  ASSERT_TRUE(monitor.violated());
  EXPECT_EQ(monitor.first_violation_time(), 5);
  EXPECT_EQ((*monitor.first_witness())[0], 0u);
  EXPECT_EQ((*monitor.first_witness())[1], 1u);
}

TEST(OnlineMonitor, CleanRunNeverFires) {
  std::vector<Message> universe = {{0, 0, 1, 0}, {1, 0, 1, 0}};
  OnlineMonitor monitor(universe, causal_ordering());
  monitor.on_event(0, {0, S}, 0);
  monitor.on_event(0, {1, S}, 1);
  monitor.on_event(1, {0, D}, 2);
  monitor.on_event(1, {1, D}, 3);
  EXPECT_FALSE(monitor.violated());
  EXPECT_EQ(monitor.violation_count(), 0u);
}

TEST(OnlineMonitor, IncrementalCausalityMatchesDefinition) {
  std::vector<Message> universe = {{0, 0, 1, 0}, {1, 1, 2, 0}};
  OnlineMonitor monitor(universe, causal_ordering());
  monitor.on_event(0, {0, S}, 0);
  monitor.on_event(1, {0, D}, 1);
  monitor.on_event(1, {1, S}, 2);
  monitor.on_event(2, {1, D}, 3);
  using UK = UserEventKind;
  EXPECT_TRUE(monitor.before({0, UK::kSend}, {1, UK::kSend}));
  EXPECT_TRUE(monitor.before({0, UK::kSend}, {1, UK::kDeliver}));
  EXPECT_FALSE(monitor.before({1, UK::kSend}, {0, UK::kSend}));
  EXPECT_FALSE(monitor.before({1, UK::kDeliver}, {0, UK::kDeliver}));
}

TEST(OnlineMonitor, RespectsColorConstraints) {
  std::vector<Message> universe = {{0, 0, 1, 0}, {1, 0, 1, 0}};
  OnlineMonitor plain(universe, global_forward_flush(1));
  plain.on_event(0, {0, S}, 0);
  plain.on_event(0, {1, S}, 1);
  plain.on_event(1, {1, D}, 2);
  plain.on_event(1, {0, D}, 3);
  EXPECT_FALSE(plain.violated());  // nothing red

  std::vector<Message> red = {{0, 0, 1, 0}, {1, 0, 1, 1}};
  OnlineMonitor monitor(red, global_forward_flush(1));
  monitor.on_event(0, {0, S}, 0);
  monitor.on_event(0, {1, S}, 1);
  monitor.on_event(1, {1, D}, 2);
  EXPECT_TRUE(monitor.on_event(1, {0, D}, 3));
}

TEST(OnlineMonitor, AgreesWithOfflineOracleOnSimulations) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    WorkloadOptions wopts;
    wopts.n_processes = 3;
    wopts.n_messages = 60;
    wopts.mean_gap = 0.2;
    const Workload workload = random_workload(wopts, rng);
    auto monitor = std::make_shared<OnlineMonitor>(
        workload_universe(workload), causal_ordering());
    SimOptions sopts;
    sopts.seed = seed;
    sopts.network.jitter_mean = 3.0;
    sopts.observers.add(monitor_observer(monitor));
    const SimResult result =
        simulate(workload, AsyncProtocol::factory(), 3, sopts);
    ASSERT_TRUE(result.completed);
    const auto run = result.trace.to_user_run();
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(monitor->violated(),
              find_violation(*run, causal_ordering()).has_value())
        << "seed " << seed;
  }
}

TEST(OnlineMonitor, NeverFiresUnderCausalProtocol) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    WorkloadOptions wopts;
    wopts.n_processes = 4;
    wopts.n_messages = 80;
    wopts.mean_gap = 0.3;
    const Workload workload = random_workload(wopts, rng);
    auto monitor = std::make_shared<OnlineMonitor>(
        workload_universe(workload), causal_ordering());
    SimOptions sopts;
    sopts.seed = seed;
    sopts.network.jitter_mean = 3.0;
    sopts.observers.add(monitor_observer(monitor));
    const SimResult result =
        simulate(workload, CausalRstProtocol::factory(), 4, sopts);
    ASSERT_TRUE(result.completed);
    EXPECT_FALSE(monitor->violated()) << "seed " << seed;
  }
}

TEST(OnlineMonitor, FirstViolationTimeIsEarliest) {
  // Monitor a run with two separate violations; the recorded time is the
  // first one.
  std::vector<Message> universe = {
      {0, 0, 1, 0}, {1, 0, 1, 0}, {2, 0, 1, 0}, {3, 0, 1, 0}};
  OnlineMonitor monitor(universe, causal_ordering());
  monitor.on_event(0, {0, S}, 0);
  monitor.on_event(0, {1, S}, 1);
  monitor.on_event(0, {2, S}, 2);
  monitor.on_event(0, {3, S}, 3);
  monitor.on_event(1, {1, D}, 4);
  EXPECT_TRUE(monitor.on_event(1, {0, D}, 5));   // first violation
  monitor.on_event(1, {3, D}, 6);
  EXPECT_TRUE(monitor.on_event(1, {2, D}, 7));   // second
  EXPECT_EQ(monitor.first_violation_time(), 5);
  EXPECT_EQ(monitor.violation_count(), 2u);
}

TEST(OnlineMonitor, CrownSpecAcrossProcesses) {
  // The crossing pair completes the 2-crown at the second delivery.
  std::vector<Message> universe = {{0, 0, 1, 0}, {1, 1, 0, 0}};
  OnlineMonitor monitor(universe, sync_crown(2));
  monitor.on_event(0, {0, S}, 0);
  monitor.on_event(1, {1, S}, 1);
  EXPECT_FALSE(monitor.on_event(1, {0, D}, 2));
  EXPECT_TRUE(monitor.on_event(0, {1, D}, 3));
}

TEST(Monitor, UnsatisfiablePredicateNeverFires) {
  Rng rng(911);
  const Feed feed = random_feed(rng, 3, 8, {0, 1});
  for (const ForbiddenPredicate& p : async_zoo()) {
    for (const MonitorSearchMode mode :
         {MonitorSearchMode::kPruned, MonitorSearchMode::kNaive}) {
      OnlineMonitor monitor(feed.messages, p, mode);
      for (const auto& [process, event, time] : feed.events) {
        EXPECT_FALSE(monitor.on_event(process, event, time));
      }
      EXPECT_FALSE(monitor.violated());
    }
  }
}

TEST(Monitor, ResetRestoresPostConstructionState) {
  Rng rng(101);
  const Feed feed = random_feed(rng, 4, 8, {1, 2});
  for (const MonitorSearchMode mode :
       {MonitorSearchMode::kPruned, MonitorSearchMode::kNaive}) {
    OnlineMonitor monitor(feed.messages, marked_send_order(),
                          MonitorOptions{mode, 1});
    const auto feed_all = [&] {
      for (const auto& [process, event, time] : feed.events) {
        monitor.on_event(process, event, time);
      }
    };
    feed_all();
    const bool verdict = monitor.violated();
    const auto witness = monitor.first_witness();
    const auto detection = monitor.events_to_detection();
    monitor.reset();
    EXPECT_FALSE(monitor.violated());
    EXPECT_EQ(monitor.events_seen(), 0u);
    feed_all();
    EXPECT_EQ(monitor.violated(), verdict);
    EXPECT_EQ(monitor.first_witness(), witness);
    EXPECT_EQ(monitor.events_to_detection(), detection);
  }
}

// --- chain dominance: target levels probe descending ---

TEST(Monitor, TargetLevelProbesDescendingButReportsTheFirstWitness) {
  // P0 sends m0, m1 to P1, then m2 to P2 and m3 to P1; P1 delivers m3
  // before m0 and m1.  Under kweaker-1, (x0.s |> x1.s) & (x1.s |> x2.s) &
  // (x2.r |> x0.r), both m0 and m1 complete a witness with x1 = m2 and
  // x2 = m3.  The search pinned at x1 binds x0 on a target level: it
  // probes m1 first, succeeds, and must still report x0 = m0.
  Feed feed;
  feed.messages = {{0, 0, 1, 0}, {1, 0, 1, 0}, {2, 0, 2, 0}, {3, 0, 1, 0}};
  double t = 0;
  for (const auto& [process, msg, kind] :
       {std::tuple{0, 0, S}, {0, 1, S}, {0, 2, S}, {0, 3, S}, {1, 3, D},
        {1, 0, D}, {1, 1, D}, {2, 2, D}}) {
    feed.events.emplace_back(static_cast<ProcessId>(process),
                             SystemEvent{static_cast<MessageId>(msg), kind},
                             t++);
  }
  const ForbiddenPredicate spec = k_weaker_causal(1);
  OnlineMonitor pruned(feed.messages, spec, MonitorSearchMode::kPruned);
  OnlineMonitor naive(feed.messages, spec, MonitorSearchMode::kNaive);
  for (const auto& [process, event, time] : feed.events) {
    EXPECT_EQ(pruned.on_event(process, event, time),
              naive.on_event(process, event, time));
  }
  // The deliveries of m0, m1 and m2 each find a witness through their
  // message; m2's only through the search pinned at x1.
  EXPECT_EQ(naive.violation_count(), 3u);
  EXPECT_EQ(pruned.violation_count(), naive.violation_count());
  EXPECT_EQ(pruned.events_to_detection(), naive.events_to_detection());
  ASSERT_TRUE(naive.first_witness().has_value());
  EXPECT_EQ(pruned.first_witness(), naive.first_witness());

  const UserRun run = feed.to_run();
  WitnessEngine engine(spec, run.messages());
  WitnessEngine::Stats stats;
  engine.set_stats(&stats);
  const BitMatrix ancestors = run.order().matrix().transposed();
  const WitnessEngine::View view{&run.order().matrix(), &ancestors, nullptr,
                                 nullptr};
  std::vector<MessageId> witness;
  ASSERT_TRUE(engine.search_pinned(view, 1, 2, witness));
  EXPECT_EQ(witness, (std::vector<MessageId>{0, 2, 3}));
  // x0 = m1 and its x2, then the ascending pass's x0 = m0 and its x2:
  // an ascending-only search would stop after two bindings.
  EXPECT_EQ(stats.enumerated, 4u);
}

// --- batched search (MonitorOptions::batch_size) ---

TEST(Monitor, BatchedSearchPreservesVerdictAtBatchGranularity) {
  Rng rng(577);
  int fired = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Feed feed = random_feed(rng, 3, 7, {0, 1});
    const ForbiddenPredicate spec =
        trial % 2 == 0 ? causal_ordering() : fifo();
    for (const std::size_t batch : {std::size_t{2}, std::size_t{5}}) {
      OnlineMonitor batched(feed.messages, spec,
                            MonitorOptions{MonitorSearchMode::kPruned,
                                           batch});
      for (const auto& [process, event, time] : feed.events) {
        batched.on_event(process, event, time);
      }
      batched.flush();
      if (batched.violated()) ++fired;
      OnlineMonitor fresh(feed.messages, spec, MonitorSearchMode::kPruned);
      for (const auto& [process, event, time] : feed.events) {
        fresh.on_event(process, event, time);
      }
      ASSERT_EQ(batched.violated(), fresh.violated())
          << "batch=" << batch << "\n"
          << feed.to_run().to_string();
      if (fresh.violated()) {
        // Detection shifts by at most one batch of user events.
        EXPECT_GE(batched.events_to_detection(),
                  fresh.events_to_detection());
        EXPECT_LT(batched.events_to_detection(),
                  fresh.events_to_detection() + batch);
      }
    }
  }
  EXPECT_GT(fired, 10);
}

TEST(Monitor, BatchSizeOnePreservesExistingBehaviorExactly) {
  Rng rng(431);
  const Feed feed = random_feed(rng, 3, 8, {0, 1});
  OnlineMonitor a(feed.messages, causal_ordering(),
                  MonitorSearchMode::kPruned);
  OnlineMonitor b(feed.messages, causal_ordering(),
                  MonitorOptions{MonitorSearchMode::kPruned, 1});
  for (const auto& [process, event, time] : feed.events) {
    EXPECT_EQ(a.on_event(process, event, time),
              b.on_event(process, event, time));
  }
  EXPECT_EQ(a.violated(), b.violated());
  EXPECT_EQ(a.first_witness(), b.first_witness());
  EXPECT_EQ(a.violation_count(), b.violation_count());
  EXPECT_EQ(a.events_to_detection(), b.events_to_detection());
}

}  // namespace
}  // namespace msgorder
