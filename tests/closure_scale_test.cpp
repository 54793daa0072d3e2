// Complexity guard for the run closure at a scale the checkers claim: a
// causal registry stack at 16 processes x 5,000 messages goes through
// the offline lift (a 20,000-event system run and a 10,000-event user
// run, each transitively closed), the offline oracle and the finest
// limit set.  A closure cubic in the run length needs tens of seconds
// here; tests/CMakeLists.txt gives this test a timeout that only a
// closure linear in the run's edges meets, sanitizers included.
#include <gtest/gtest.h>

#include "src/checker/limit_sets.hpp"
#include "src/checker/violation.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"

namespace msgorder {
namespace {

TEST(ClosureScale, CausalStackAt5000MessagesLiftsAndChecks) {
  constexpr std::size_t kProcesses = 16;
  constexpr std::size_t kMessages = 5'000;
  RegisteredProtocol causal;
  for (RegisteredProtocol& rp : standard_protocols()) {
    if (rp.name == "causal-rst") causal = std::move(rp);
  }
  ASSERT_EQ(causal.name, "causal-rst");

  Rng rng(5000);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = kMessages;
  const Workload workload = random_workload(wopts, rng);
  SimOptions sopts;
  sopts.seed = 17;
  const SimResult result =
      simulate(workload, causal.factory, kProcesses, sopts);
  ASSERT_TRUE(result.completed) << result.error;

  std::string error;
  const std::optional<UserRun> run = result.trace.to_user_run(&error);
  ASSERT_TRUE(run.has_value()) << error;
  ASSERT_EQ(run->message_count(), kMessages);
  EXPECT_TRUE(satisfies(*run, causal.spec));
  EXPECT_EQ(finest_limit_set(*run), LimitSet::kCausal);
}

}  // namespace
}  // namespace msgorder
