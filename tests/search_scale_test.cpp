// Work guard for the witness search at the scale the general stacks are
// checked: a sync-token run at 16 processes x 400 messages is in spec,
// so the unpinned crown-4 search must exhaust the whole space.  Without
// nogoods that space is cubic in the run (8,291,148 DFS nodes at these
// seeds); with them each (x0, x2) pair of the crown is refuted about
// once, which keeps the count under n^2 (about 152k).  The guard counts DFS nodes rather than timing
// anything, so it holds unchanged under sanitizers.
#include <gtest/gtest.h>

#include "src/checker/limit_sets.hpp"
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

}  // namespace
}  // namespace msgorder
