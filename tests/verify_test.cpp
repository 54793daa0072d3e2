// The verifier's clean-stack gate (ISSUE 10): every registry stack and
// the synthesized causal stack must verify on the whole standard
// scenario set at (3 processes, 4 messages) under both FIFO and
// reordering channels, the msgorder.verify/1 artifact must validate,
// and the --quick budget must degrade to "bounded" — never to a false
// "verified".
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/protocols/reliable.hpp"
#include "src/protocols/state_codec.hpp"
#include "src/verify/execution.hpp"
#include "src/verify/report.hpp"
#include "src/verify/scenario.hpp"
#include "src/verify/stacks.hpp"
#include "src/verify/verifier.hpp"

namespace msgorder {
namespace {

constexpr std::size_t kProcs = 3;
constexpr std::size_t kMsgs = 4;

TEST(VerifyClean, EveryStackVerifiesUnderReorderingChannels) {
  const auto scenarios = standard_scenarios(kProcs, kMsgs);
  VerifyOptions options;
  options.channel_model = ChannelModel::kReorder;
  for (const VerifyTarget& target : verify_targets(false)) {
    const StackReport report = verify_stack(
        target.name, target.factory, target.spec, scenarios, options);
    EXPECT_EQ(report.verdict, "verified") << target.name;
    for (const ScenarioResult& s : report.scenarios) {
      EXPECT_EQ(s.verdict, "verified")
          << target.name << " / " << s.scenario << ": " << s.detail;
      EXPECT_GE(s.complete_states, 1u)
          << target.name << " / " << s.scenario;
      EXPECT_FALSE(s.uncached)
          << target.name << " lacks snapshot(); exploration ran uncached";
    }
  }
}

TEST(VerifyClean, EveryStackVerifiesUnderFifoChannels) {
  const auto scenarios = standard_scenarios(kProcs, kMsgs);
  VerifyOptions options;
  options.channel_model = ChannelModel::kFifo;
  for (const VerifyTarget& target : verify_targets(false)) {
    const StackReport report = verify_stack(
        target.name, target.factory, target.spec, scenarios, options);
    EXPECT_EQ(report.verdict, "verified")
        << target.name << ": " << report.verdict;
  }
}

TEST(VerifyClean, RandomScenariosAlsoVerify) {
  std::vector<Scenario> scenarios;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    scenarios.push_back(random_scenario(kProcs, kMsgs, seed));
  }
  VerifyOptions options;
  for (const VerifyTarget& target : verify_targets(false)) {
    const StackReport report = verify_stack(
        target.name, target.factory, target.spec, scenarios, options);
    EXPECT_EQ(report.verdict, "verified") << target.name;
  }
}

TEST(VerifyQuick, StateBudgetYieldsBoundedNeverFalseVerified) {
  const auto scenarios = standard_scenarios(kProcs, kMsgs);
  VerifyOptions options;
  options.max_states = 10;  // far below any scenario's state count
  const VerifyTarget target = *find_verify_target("sync-token");
  const StackReport report = verify_stack(
      target.name, target.factory, target.spec, scenarios, options);
  EXPECT_EQ(report.verdict, "bounded");
  EXPECT_TRUE(report.ok());
  for (const ScenarioResult& s : report.scenarios) {
    EXPECT_EQ(s.verdict, "bounded") << s.scenario;
    EXPECT_LE(s.states, options.max_states) << s.scenario;
  }
}

TEST(VerifyQuick, BudgetDoesNotMaskAMutantForever) {
  // A bounded run that happens to hit the bug still reports it: the
  // budget caps exploration, it never converts a counterexample into
  // "bounded".  Give the budget enough room to reach the violation.
  const VerifyTarget mutant = *find_verify_target("mutant:causal-no-merge");
  VerifyOptions options;
  options.max_states = 100000;
  const StackReport report =
      verify_stack(mutant.name, mutant.factory, mutant.spec,
                   standard_scenarios(kProcs, kMsgs), options);
  EXPECT_EQ(report.verdict, "violation");
}

TEST(VerifyReport, ArtifactIsValidJson) {
  const auto scenarios = standard_scenarios(2, 3);
  VerifyOptions options;
  std::vector<StackReport> reports;
  for (const char* name : {"fifo", "mutant:fifo-overtake"}) {
    const VerifyTarget target = *find_verify_target(name);
    reports.push_back(verify_stack(target.name, target.factory,
                                   target.spec, scenarios, options));
  }
  JsonWriter w;
  write_verify_json(w, reports, 2, 3, options);
  std::string error;
  ASSERT_TRUE(json_parse(w.str(), &error).has_value()) << error;
  EXPECT_NE(w.str().find("\"schema\":\"msgorder.verify/1\""),
            std::string::npos);
  EXPECT_NE(w.str().find("\"verdict\":\"failed\""), std::string::npos);
  EXPECT_NE(w.str().find("\"counterexample\""), std::string::npos);
  // Backtracking cost rides along per scenario, per stack and in total.
  std::size_t replays = 0;
  for (const StackReport& report : reports) replays += report.replays_total;
  EXPECT_NE(w.str().find("\"replays_total\":" + std::to_string(replays)),
            std::string::npos);
  EXPECT_NE(w.str().find("\"replayed_actions_total\""), std::string::npos);
  EXPECT_NE(w.str().find("\"replays\""), std::string::npos);
  // So do the spec-memo and state-key counters.
  VerifyCounters total;
  for (const StackReport& report : reports) total += report.counters_total;
  EXPECT_GT(total.spec_checks, 0u);
  EXPECT_GT(total.interned_hosts, 0u);
  EXPECT_GT(total.reinterned, 0u);
  EXPECT_NE(w.str().find("\"spec_checks_total\":" +
                         std::to_string(total.spec_checks)),
            std::string::npos);
  EXPECT_NE(w.str().find("\"reinterned_total\":" +
                         std::to_string(total.reinterned)),
            std::string::npos);
  for (const char* key :
       {"\"spec_memo_hits\":", "\"interned_hosts\":",
        "\"interned_channels\":", "\"interned_packets\":",
        "\"interned_history_nodes\":", "\"reinterned\":"}) {
    EXPECT_NE(w.str().find(key), std::string::npos) << key;
  }
}

TEST(VerifyLossy, ReliabilityWrapMasksDropsOnTheFifoStack) {
  // One drop on any channel: the retransmission layer must still
  // deliver everything and keep the FIFO spec intact.  Cyclic control
  // traffic under the wrap may exhaust the depth budget as "bounded";
  // what the gate demands is the absence of counterexamples.
  Scenario burst;
  burst.name = "burst";
  burst.n_processes = 2;
  for (MessageId m = 0; m < 3; ++m) {
    burst.messages.push_back({m, 0, 1, 0, -1});
  }
  const VerifyTarget target = *find_verify_target("fifo");
  VerifyOptions options;
  options.channel_model = ChannelModel::kLossy;
  options.max_drops = 1;
  const ScenarioResult result =
      verify_scenario(burst, target.factory, target.spec, options);
  EXPECT_TRUE(result.ok()) << result.verdict << ": " << result.detail;
  EXPECT_FALSE(result.counterexample.has_value());
}

/// Sends every message with a one-byte payload read from `byte` at send
/// time and keeps no state: two runs of it differ only in what their
/// in-flight packets carry.
class PayloadByteProtocol final : public Protocol {
 public:
  PayloadByteProtocol(Host& host, const std::uint8_t& byte)
      : host_(host), byte_(byte) {}
  void on_invoke(const Message& m) override {
    Packet pkt;
    pkt.dst = m.dst;
    pkt.user_msg = m.id;
    codec::put_u8(pkt.payload, byte_);
    host_.send_packet(std::move(pkt));
  }
  void on_packet(const Packet& packet) override {
    host_.deliver(packet.user_msg);
  }
  std::string name() const override { return "payload-byte"; }
  bool snapshot(std::string& out) const override {
    (void)out;
    return true;
  }

 private:
  Host& host_;
  const std::uint8_t& byte_;
};

std::vector<std::uint32_t> key_of(Execution& exec) {
  std::span<const std::uint32_t> key;
  EXPECT_TRUE(exec.state_key(&key));
  return {key.begin(), key.end()};
}

TEST(VerifyExecution, InFlightPayloadIsPartOfTheStateKey) {
  // Keys are ids from one execution's tables, so every state is reached
  // in the same execution, switching the payload between replays.
  Scenario one;
  one.name = "one";
  one.n_processes = 2;
  one.messages.push_back({0, 0, 1, 0, -1});
  std::uint8_t byte = 'a';
  Execution exec(one,
                 [&byte](Host& host) {
                   return std::make_unique<PayloadByteProtocol>(host, byte);
                 },
                 ChannelModel::kReorder, 0);
  const VerifyAction invoke{VerifyAction::Kind::kInvoke, 0, 0, 0};
  const VerifyAction deliver{VerifyAction::Kind::kDeliver, 1, 0, 0};
  const auto key_after = [&](std::uint8_t b,
                             const std::vector<VerifyAction>& schedule) {
    byte = b;
    exec.replay(schedule);
    return key_of(exec);
  };
  const auto empty = key_after('a', {});
  const auto in_flight_a = key_after('a', {invoke});
  const auto in_flight_b = key_after('b', {invoke});
  EXPECT_EQ(key_after('a', {invoke}), in_flight_a);
  EXPECT_NE(in_flight_a, in_flight_b);  // same packet, different payload
  EXPECT_NE(in_flight_a, empty);
  // Once the packet is delivered, the payload is no longer state.
  EXPECT_EQ(key_after('a', {invoke, deliver}),
            key_after('b', {invoke, deliver}));
}

/// Walks every reachable state of `exec` (no reduction, deduplicated on
/// the state key) and checks that the incremental key equals the key
/// re-interned from scratch, both after an apply and after a replay
/// resumed with restore_key(), the verifier's two paths into a state.
/// Returns the number of distinct states.
std::size_t expect_keys_exact(Execution& exec, const std::string& where) {
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<VerifyAction> schedule;
  std::function<void()> visit = [&] {
    const std::vector<std::uint32_t> incremental = key_of(exec);
    exec.invalidate_key();
    const std::vector<std::uint32_t> full = key_of(exec);
    if (incremental != full) {
      std::string path;
      for (const VerifyAction& a : schedule) path += " " + to_string(a);
      ADD_FAILURE() << where << ": incremental key differs after" << path;
    }
    if (!seen.insert(full).second) return;
    std::vector<VerifyAction> actions;
    exec.enabled(actions);
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (i > 0) {
        exec.replay(schedule);
        exec.restore_key(full);
      }
      exec.apply(actions[i]);
      schedule.push_back(actions[i]);
      visit();
      schedule.pop_back();
    }
  };
  visit();
  return seen.size();
}

TEST(VerifyStateKey, IncrementalKeyEqualsFullRekeyAtEveryState) {
  for (const ChannelModel model :
       {ChannelModel::kReorder, ChannelModel::kFifo}) {
    for (const VerifyTarget& target : verify_targets(true)) {
      for (const Scenario& scenario : standard_scenarios(kProcs, kMsgs)) {
        Execution exec(scenario, target.factory, model, 0);
        EXPECT_GT(expect_keys_exact(exec, target.name + " / " +
                                              scenario.name + " / " +
                                              to_string(model)),
                  1u);
      }
    }
  }
  // Drops, retransmission timers and duplicates under the reliability
  // wrap, as the verifier runs the lossy model.
  const VerifyTarget fifo = *find_verify_target("fifo");
  for (const Scenario& scenario : standard_scenarios(kProcs, 3)) {
    Execution exec(scenario, ReliableProtocol::wrap(fifo.factory, {}),
                   ChannelModel::kLossy, 1);
    EXPECT_GT(expect_keys_exact(exec, "lossy fifo / " + scenario.name), 1u);
  }
}

TEST(VerifySpec, ExceededCountingPredicateIsAViolation) {
  // Two messages p0 -> p1 can both be in flight on a reordering
  // channel, so "at most one concurrently" fails after the forbidden
  // predicates pass, and at most two holds.
  Scenario burst;
  burst.name = "burst";
  burst.n_processes = 2;
  burst.messages.push_back({0, 0, 1, 0, -1});
  burst.messages.push_back({1, 0, 1, 0, -1});
  const VerifyTarget target = *find_verify_target("fifo");
  CompositeSpec spec = target.spec;
  ASSERT_FALSE(spec.predicates.empty());
  spec.counting.push_back(CountingPredicate{std::nullopt, 1});
  const ScenarioResult tight =
      verify_scenario(burst, target.factory, spec, VerifyOptions{});
  EXPECT_EQ(tight.verdict, "violation");
  EXPECT_EQ(tight.detail, "counting predicate exceeded");
  ASSERT_TRUE(tight.counterexample.has_value());
  spec.counting.back().limit = 2;
  const ScenarioResult loose =
      verify_scenario(burst, target.factory, spec, VerifyOptions{});
  EXPECT_EQ(loose.verdict, "verified") << loose.detail;
  EXPECT_EQ(loose.counters.spec_checks, 1u);  // one delivered view
}

}  // namespace
}  // namespace msgorder
