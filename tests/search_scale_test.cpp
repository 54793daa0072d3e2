// Work guards for the witness search at the scale the stacks are
// checked.  Both runs are in spec, so each search must exhaust its whole
// space.
//   * A sync-token run at 16 processes x 400 messages under crown-4:
//     without nogoods that space is cubic in the run (8,291,148 DFS
//     nodes at these seeds); with them each (x0, x2) pair of the crown is
//     refuted about once, which keeps the count under n^2 (about 152k).
//   * A kweaker-1 run at 16 processes x 2,000 messages under its own
//     spec: without chain dominance the middle level of the arity-3
//     chain tries every descendant of x0 (about 1.8M unpinned DFS
//     nodes); with it one failure per process line refutes the rest of
//     the line, which keeps both the unpinned search and the online
//     monitor near n * P.
// The guards count DFS nodes rather than timing anything, so they hold
// unchanged under sanitizers.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "src/checker/limit_sets.hpp"
#include "src/checker/monitor.hpp"
#include "src/checker/search.hpp"
#include "src/checker/violation.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"

namespace msgorder {
namespace {

TEST(SearchScale, SyncCrown4OnSyncTokenRunStaysQuadratic) {
  constexpr std::size_t kProcesses = 16;
  constexpr std::size_t kMessages = 400;
  RegisteredProtocol token;
  for (RegisteredProtocol& rp : standard_protocols()) {
    if (rp.name == "sync-token") token = std::move(rp);
  }
  ASSERT_EQ(token.name, "sync-token");

  Rng rng(400);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = kMessages;
  const Workload workload = random_workload(wopts, rng);
  SimOptions sopts;
  sopts.seed = 19;
  const SimResult result =
      simulate(workload, token.factory, kProcesses, sopts);
  ASSERT_TRUE(result.completed) << result.error;

  std::string error;
  const std::optional<UserRun> run = result.trace.to_user_run(&error);
  ASSERT_TRUE(run.has_value()) << error;
  ASSERT_EQ(run->message_count(), kMessages);

  WitnessEngine engine(sync_crown(4), run->messages());
  WitnessEngine::Stats stats;
  engine.set_stats(&stats);
  const BitMatrix ancestors = run->order().matrix().transposed();
  const WitnessEngine::View view{&run->order().matrix(), &ancestors,
                                 nullptr, nullptr};
  std::vector<MessageId> witness;
  EXPECT_FALSE(engine.search(view, witness));
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.witnesses, 0u);
  EXPECT_GT(stats.nogoods, 0u);
  EXPECT_GT(stats.nogood_prunes, 0u);
  EXPECT_LE(stats.dfs_nodes, kMessages * kMessages);

  EXPECT_TRUE(satisfies(*run, token.spec));
  EXPECT_EQ(finest_limit_set(*run), LimitSet::kSync);
}

TEST(SearchScale, KWeaker1RunStaysNearLinear) {
  constexpr std::size_t kProcesses = 16;
  constexpr std::size_t kMessages = 2000;
  RegisteredProtocol kweaker;
  for (RegisteredProtocol& rp : standard_protocols()) {
    if (rp.name == "kweaker-1") kweaker = std::move(rp);
  }
  ASSERT_EQ(kweaker.name, "kweaker-1");
  const ForbiddenPredicate spec = k_weaker_causal(1);

  Rng rng(2000);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = kMessages;
  const Workload workload = random_workload(wopts, rng);
  auto monitor = std::make_shared<OnlineMonitor>(
      workload_universe(workload), spec, MonitorSearchMode::kPruned);
  WitnessEngine::Stats monitor_stats;
  monitor->set_engine_stats(&monitor_stats);
  SimOptions sopts;
  sopts.seed = 23;
  sopts.observers.add(monitor_observer(monitor));
  const SimResult result =
      simulate(workload, kweaker.factory, kProcesses, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_FALSE(monitor->violated());

  std::string error;
  const std::optional<UserRun> run = result.trace.to_user_run(&error);
  ASSERT_TRUE(run.has_value()) << error;
  ASSERT_EQ(run->message_count(), kMessages);

  WitnessEngine engine(spec, run->messages());
  WitnessEngine::Stats stats;
  engine.set_stats(&stats);
  const BitMatrix ancestors = run->order().matrix().transposed();
  const WitnessEngine::View view{&run->order().matrix(), &ancestors,
                                 nullptr, nullptr};
  std::vector<MessageId> witness;
  EXPECT_FALSE(engine.search(view, witness));
  EXPECT_GT(stats.dominance_prunes, 0u);
  EXPECT_LE(stats.dfs_nodes, kMessages * kProcesses);
  EXPECT_GT(monitor_stats.dominance_prunes, 0u);
  EXPECT_LE(monitor_stats.dfs_nodes, 4 * kMessages * kProcesses);
  std::printf("kweaker-1 at %zu msgs: unpinned %llu DFS nodes, "
              "monitor %llu DFS nodes over %llu searches\n",
              kMessages, static_cast<unsigned long long>(stats.dfs_nodes),
              static_cast<unsigned long long>(monitor_stats.dfs_nodes),
              static_cast<unsigned long long>(monitor_stats.searches));

  EXPECT_TRUE(satisfies(*run, spec));
}

}  // namespace
}  // namespace msgorder
