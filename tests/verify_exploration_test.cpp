// Pinned exploration graph: the verifier's search at (3 procs, 4 msgs)
// for every target — registry stacks, the synthesized causal stack and
// the seeded mutants — recorded as verdict, scenarios visited, states,
// transitions, complete runs and complete states, under reordering and
// FIFO channels, without sleep sets, without the state cache, and on
// the lossy model.  The mutants' counterexample schedules are pinned
// action by action.
//
// These numbers are a property of WHICH interleavings the search walks
// (schedule order, sleep sets, visited keys), not of HOW each state is
// reached.  A change to backtracking or to the execution's bookkeeping
// must leave every row untouched; a change to the reduction itself has
// to re-derive the table and say why the graph moved.
//
// The cost counters are pinned too.  The spec memo answers every
// complete state whose user view was already checked, and the state-key
// counters fix how much each exploration re-interns: a key that stopped
// being incremental (say, a replay that no longer resumes from the
// frame's key) moves `reinterned` without moving the graph.
//
// The replay counters are pinned separately: backtracking re-executes
// the schedule prefix only when a sibling action actually runs, so a
// scenario whose every state has exactly one enabled action never
// replays, and a branching one replays fewer times than it transitions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/verify/scenario.hpp"
#include "src/verify/stacks.hpp"
#include "src/verify/verifier.hpp"

namespace msgorder {
namespace {

struct GraphPin {
  const char* target;
  const char* verdict;
  std::size_t scenarios;
  std::size_t states;
  std::size_t transitions;
  std::size_t complete_runs;
  std::size_t complete_states;
};

struct SchedulePin {
  const char* target;
  const char* scenario;
  const char* property;
  const char* schedule;  // space-separated to_string(VerifyAction)
};

StackReport run(const std::string& name, std::size_t procs,
                std::size_t msgs, const VerifyOptions& options) {
  const VerifyTarget target = *find_verify_target(name);
  return verify_stack(target.name, target.factory, target.spec,
                      standard_scenarios(procs, msgs), options);
}

std::string schedule_text(const VerifyCounterexample& ce) {
  std::string out;
  for (const VerifyAction& a : ce.schedule) {
    if (!out.empty()) out += " ";
    out += to_string(a);
  }
  return out;
}

void expect_graph(const std::vector<GraphPin>& pins,
                  const std::vector<SchedulePin>& schedules,
                  std::size_t procs, std::size_t msgs,
                  const VerifyOptions& options) {
  std::size_t counterexamples = 0;
  for (const GraphPin& pin : pins) {
    SCOPED_TRACE(pin.target);
    const StackReport report = run(pin.target, procs, msgs, options);
    std::size_t complete_runs = 0;
    std::size_t complete_states = 0;
    for (const ScenarioResult& s : report.scenarios) {
      complete_runs += s.complete_runs;
      complete_states += s.complete_states;
      if (!s.counterexample.has_value()) continue;
      ++counterexamples;
      bool pinned = false;
      for (const SchedulePin& sp : schedules) {
        if (pin.target != std::string(sp.target)) continue;
        pinned = true;
        EXPECT_EQ(s.scenario, sp.scenario);
        EXPECT_EQ(s.counterexample->property, sp.property);
        EXPECT_EQ(schedule_text(*s.counterexample), sp.schedule);
      }
      EXPECT_TRUE(pinned) << "unpinned counterexample in " << s.scenario;
    }
    EXPECT_EQ(report.verdict, pin.verdict);
    EXPECT_EQ(report.scenarios.size(), pin.scenarios);
    EXPECT_EQ(report.states_total, pin.states);
    EXPECT_EQ(report.transitions_total, pin.transitions);
    EXPECT_EQ(complete_runs, pin.complete_runs);
    EXPECT_EQ(complete_states, pin.complete_states);
  }
  EXPECT_EQ(counterexamples, schedules.size());
}

// Counterexamples shared by several cells (the search meets the same
// first failing schedule with and without sleep sets or the cache).
constexpr const char* kOvertakeBurst =
    "invoke(x0 at p0) invoke(x1 at p0) invoke(x2 at p0) invoke(x3 at p0) "
    "deliver(p0->p1 uid 0) deliver(p0->p1 uid 2) deliver(p0->p1 uid 3) "
    "deliver(p0->p1 uid 1)";
constexpr const char* kStuckRing =
    "invoke(x0 at p0) invoke(x3 at p0) invoke(x1 at p1) invoke(x2 at p2) "
    "deliver(p0->p1 uid 1) deliver(p0->p1 uid 0) deliver(p1->p2 uid 2) "
    "deliver(p2->p0 uid 3)";
constexpr const char* kNoMergeRelay =
    "invoke(x0 at p0) invoke(x1 at p0) deliver(p0->p1 uid 1) "
    "invoke(x2 at p1) invoke(x3 at p1) deliver(p1->p0 uid 3) "
    "deliver(p1->p2 uid 2) deliver(p0->p2 uid 0)";
constexpr const char* kEarlyReleaseRing =
    "invoke(x0 at p0) invoke(x3 at p0) invoke(x1 at p1) invoke(x2 at p2) "
    "deliver(p0->p1 uid 0) deliver(p0->p1 uid 1) deliver(p1->p2 uid 3) "
    "deliver(p1->p2 uid 2) deliver(p2->p0 uid 5) deliver(p0->p1 uid 6) "
    "deliver(p0->p1 uid 7) deliver(p1->p2 uid 8) deliver(p2->p0 uid 4)";

TEST(VerifyExploration, ReorderChannelGraphIsPinned) {
  const std::vector<GraphPin> pins = {
      {"async", "verified", 12, 1760, 1748, 304, 304},
      {"fifo", "verified", 12, 1382, 1370, 148, 148},
      {"causal-rst", "verified", 12, 1382, 1370, 148, 148},
      {"causal-ses", "verified", 12, 1382, 1370, 148, 148},
      {"kweaker-1", "verified", 12, 1692, 1680, 266, 266},
      {"flush", "verified", 12, 1650, 1638, 255, 255},
      {"global-flush", "verified", 12, 1723, 1711, 285, 285},
      {"sync-sequencer", "verified", 12, 4764, 4752, 124, 176},
      {"sync-token", "verified", 12, 3424, 3412, 0, 320},
      {"sync-locks", "verified", 12, 5834, 5822, 64, 288},
      {"synth:causal", "verified", 12, 1382, 1370, 148, 148},
      {"mutant:fifo-overtake", "violation", 9, 1073, 1064, 122, 123},
      {"mutant:fifo-stuck", "deadlock", 1, 17, 16, 1, 1},
      {"mutant:causal-no-merge", "violation", 11, 1219, 1208, 133, 134},
      {"mutant:token-early-release", "violation", 1, 58, 57, 0, 18},
  };
  const std::vector<SchedulePin> schedules = {
      {"mutant:fifo-overtake", "burst", "violation", kOvertakeBurst},
      {"mutant:fifo-stuck", "ring", "deadlock", kStuckRing},
      {"mutant:causal-no-merge", "relay", "violation", kNoMergeRelay},
      {"mutant:token-early-release", "ring", "violation",
       kEarlyReleaseRing},
  };
  ASSERT_EQ(pins.size(), verify_targets(true).size());
  expect_graph(pins, schedules, 3, 4, VerifyOptions{});
}

TEST(VerifyExploration, FifoChannelGraphIsPinned) {
  VerifyOptions options;
  options.channel_model = ChannelModel::kFifo;
  const std::vector<GraphPin> pins = {
      {"async", "verified", 12, 956, 944, 106, 106},
      {"fifo", "verified", 12, 956, 944, 106, 106},
      {"causal-rst", "verified", 12, 956, 944, 106, 106},
      {"causal-ses", "verified", 12, 956, 944, 106, 106},
      {"kweaker-1", "verified", 12, 956, 944, 106, 106},
      {"flush", "verified", 12, 956, 944, 106, 106},
      {"global-flush", "verified", 12, 956, 944, 106, 106},
      {"sync-sequencer", "verified", 12, 2898, 2886, 64, 98},
      {"sync-token", "verified", 12, 3424, 3412, 0, 320},
      {"sync-locks", "verified", 12, 5456, 5444, 64, 288},
      {"synth:causal", "verified", 12, 956, 944, 106, 106},
      {"mutant:fifo-overtake", "verified", 12, 956, 944, 106, 106},
      {"mutant:fifo-stuck", "verified", 12, 956, 944, 106, 106},
      {"mutant:causal-no-merge", "violation", 11, 793, 782, 91, 92},
      {"mutant:token-early-release", "deadlock", 3, 427, 424, 0, 48},
  };
  const std::vector<SchedulePin> schedules = {
      {"mutant:causal-no-merge", "relay", "violation", kNoMergeRelay},
      {"mutant:token-early-release", "fanin", "deadlock",
       "invoke(x0 at p1) invoke(x2 at p1) invoke(x1 at p2) "
       "invoke(x3 at p2)"},
  };
  ASSERT_EQ(pins.size(), verify_targets(true).size());
  expect_graph(pins, schedules, 3, 4, options);
}

TEST(VerifyExploration, UnreducedGraphIsPinned) {
  VerifyOptions options;
  options.por = false;
  const std::vector<GraphPin> pins = {
      {"async", "verified", 12, 2662, 2650, 434, 434},
      {"fifo", "verified", 12, 2066, 2054, 220, 220},
      {"causal-rst", "verified", 12, 2058, 2046, 216, 216},
      {"causal-ses", "verified", 12, 2058, 2046, 216, 216},
      {"kweaker-1", "verified", 12, 2564, 2552, 388, 388},
      {"flush", "verified", 12, 2467, 2455, 360, 360},
      {"global-flush", "verified", 12, 2613, 2601, 414, 414},
      {"sync-sequencer", "verified", 12, 6104, 6092, 124, 176},
      {"sync-token", "verified", 12, 4730, 4718, 0, 320},
      {"sync-locks", "verified", 12, 8086, 8074, 90, 348},
      {"synth:causal", "verified", 12, 2058, 2046, 216, 216},
      {"mutant:fifo-overtake", "violation", 9, 1561, 1552, 170, 171},
      {"mutant:fifo-stuck", "deadlock", 1, 22, 21, 3, 3},
      {"mutant:causal-no-merge", "violation", 11, 1764, 1753, 188, 189},
      {"mutant:token-early-release", "violation", 1, 63, 62, 0, 22},
  };
  const std::vector<SchedulePin> schedules = {
      {"mutant:fifo-overtake", "burst", "violation", kOvertakeBurst},
      {"mutant:fifo-stuck", "ring", "deadlock", kStuckRing},
      {"mutant:causal-no-merge", "relay", "violation", kNoMergeRelay},
      {"mutant:token-early-release", "ring", "violation",
       kEarlyReleaseRing},
  };
  expect_graph(pins, schedules, 3, 4, options);
}

TEST(VerifyExploration, UncachedGraphIsPinned) {
  // Only targets whose search terminates without the visited set: the
  // token stacks circulate forever uncached, and sync-locks alone
  // would take ~340k states here.
  VerifyOptions options;
  options.state_cache = false;
  const std::vector<GraphPin> pins = {
      {"async", "verified", 12, 1760, 1748, 304, 304},
      {"fifo", "verified", 12, 1760, 1748, 304, 304},
      {"causal-rst", "verified", 12, 1760, 1748, 304, 304},
      {"causal-ses", "verified", 12, 1760, 1748, 304, 304},
      {"kweaker-1", "verified", 12, 1760, 1748, 304, 304},
      {"flush", "verified", 12, 1760, 1748, 304, 304},
      {"global-flush", "verified", 12, 1760, 1748, 304, 304},
      {"sync-sequencer", "verified", 12, 30134, 30122, 4098, 5490},
      {"synth:causal", "verified", 12, 1760, 1748, 304, 304},
      {"mutant:fifo-overtake", "violation", 9, 1382, 1373, 239, 240},
      {"mutant:fifo-stuck", "deadlock", 1, 17, 16, 1, 1},
      {"mutant:causal-no-merge", "violation", 11, 1597, 1586, 289, 290},
  };
  const std::vector<SchedulePin> schedules = {
      {"mutant:fifo-overtake", "burst", "violation", kOvertakeBurst},
      {"mutant:fifo-stuck", "ring", "deadlock", kStuckRing},
      {"mutant:causal-no-merge", "relay", "violation", kNoMergeRelay},
  };
  expect_graph(pins, schedules, 3, 4, options);
}

TEST(VerifyExploration, LossyGraphIsPinned) {
  // One drop under the reliability wrap at (3 procs, 3 msgs): drops,
  // retransmission timers and duplicate arrivals all enter the graph.
  VerifyOptions options;
  options.channel_model = ChannelModel::kLossy;
  options.max_drops = 1;
  expect_graph({{"fifo", "verified", 12, 9590, 9578, 264, 5308}}, {}, 3, 3,
               options);
}

TEST(VerifyExploration, SpecAndKeyCountersArePinned) {
  struct CounterPin {
    const char* target;
    VerifyCounters counters;
  };
  const std::vector<CounterPin> pins = {
      {"fifo", {106, 42, 190, 84, 48, 228, 3970}},
      {"sync-token", {64, 256, 184, 72, 72, 228, 9968}},
      {"sync-locks", {64, 224, 440, 290, 240, 228, 15984}},
  };
  for (const CounterPin& pin : pins) {
    SCOPED_TRACE(pin.target);
    const StackReport report = run(pin.target, 3, 4, VerifyOptions{});
    const VerifyCounters& c = report.counters_total;
    EXPECT_EQ(c.spec_checks, pin.counters.spec_checks);
    EXPECT_EQ(c.spec_memo_hits, pin.counters.spec_memo_hits);
    EXPECT_EQ(c.interned_hosts, pin.counters.interned_hosts);
    EXPECT_EQ(c.interned_channels, pin.counters.interned_channels);
    EXPECT_EQ(c.interned_packets, pin.counters.interned_packets);
    EXPECT_EQ(c.interned_history_nodes,
              pin.counters.interned_history_nodes);
    EXPECT_EQ(c.reinterned, pin.counters.reinterned);
  }
  // Every complete state is either checked or a memo hit, on every
  // clean target.
  for (const VerifyTarget& target : verify_targets(false)) {
    SCOPED_TRACE(target.name);
    const StackReport report = run(target.name, 3, 4, VerifyOptions{});
    std::size_t complete_states = 0;
    for (const ScenarioResult& s : report.scenarios) {
      complete_states += s.complete_states;
      EXPECT_EQ(s.counters.spec_checks + s.counters.spec_memo_hits,
                s.complete_states)
          << s.scenario;
    }
    VerifyCounters sum;
    for (const ScenarioResult& s : report.scenarios) sum += s.counters;
    EXPECT_EQ(sum.spec_checks, report.counters_total.spec_checks);
    EXPECT_EQ(sum.reinterned, report.counters_total.reinterned);
    EXPECT_GT(complete_states, 0u);
  }
}

TEST(VerifyExploration, SingleSuccessorScenarioNeverReplays) {
  // 2 procs x 1 msg: invoke, then deliver, then done.  Every state has
  // exactly one enabled action, so no sibling ever runs and nothing is
  // re-executed (eager backtracking replayed at each of the two pops).
  Scenario scenario;
  scenario.name = "single";
  scenario.n_processes = 2;
  scenario.messages.push_back({0, 0, 1, 0, -1});
  for (const char* name : {"async", "fifo", "causal-rst"}) {
    SCOPED_TRACE(name);
    const VerifyTarget target = *find_verify_target(name);
    const ScenarioResult r =
        verify_scenario(scenario, target.factory, target.spec, {});
    EXPECT_EQ(r.verdict, "verified");
    EXPECT_EQ(r.transitions, 2u);
    EXPECT_EQ(r.replays, 0u);
    EXPECT_EQ(r.replayed_actions, 0u);
  }
}

TEST(VerifyExploration, BranchingScenariosReplayLessThanTheyTransition) {
  // Every replay precedes a sibling transition, and the first child of
  // every frame needs none, so replays < transitions whenever anything
  // branches; the stack report sums its scenarios.
  for (const char* name : {"fifo", "sync-token", "sync-locks"}) {
    SCOPED_TRACE(name);
    const StackReport report = run(name, 3, 4, VerifyOptions{});
    std::size_t replays = 0;
    std::size_t replayed_actions = 0;
    for (const ScenarioResult& s : report.scenarios) {
      SCOPED_TRACE(s.scenario);
      EXPECT_GT(s.replays, 0u);
      EXPECT_LT(s.replays, s.transitions);
      EXPECT_LE(s.replayed_actions, s.replays * s.max_depth_seen);
      replays += s.replays;
      replayed_actions += s.replayed_actions;
    }
    EXPECT_EQ(report.replays_total, replays);
    EXPECT_EQ(report.replayed_actions_total, replayed_actions);
  }
}

}  // namespace
}  // namespace msgorder
