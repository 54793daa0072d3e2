// The verifier's clean-stack gate (ISSUE 10): every registry stack and
// the synthesized causal stack must verify on the whole standard
// scenario set at (3 processes, 4 messages) under both FIFO and
// reordering channels, the msgorder.verify/1 artifact must validate,
// and the --quick budget must degrade to "bounded" — never to a false
// "verified".
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
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

/// Sends every message with a one-byte payload fixed at construction
/// and keeps no state: two executions of it differ only in what their
/// in-flight packets carry.
class FixedPayloadProtocol final : public Protocol {
 public:
  FixedPayloadProtocol(Host& host, std::uint8_t byte)
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
  std::string name() const override { return "fixed-payload"; }
  bool snapshot(std::string& out) const override {
    (void)out;
    return true;
  }

 private:
  Host& host_;
  std::uint8_t byte_;
};

ProtocolFactory fixed_payload(std::uint8_t byte) {
  return [byte](Host& host) {
    return std::make_unique<FixedPayloadProtocol>(host, byte);
  };
}

TEST(VerifyExecution, InFlightPayloadIsPartOfTheFingerprint) {
  Scenario one;
  one.name = "one";
  one.n_processes = 2;
  one.messages.push_back({0, 0, 1, 0, -1});
  const VerifyAction invoke{VerifyAction::Kind::kInvoke, 0, 0, 0};
  Execution a(one, fixed_payload('a'), ChannelModel::kReorder, 0);
  Execution a_again(one, fixed_payload('a'), ChannelModel::kReorder, 0);
  Execution b(one, fixed_payload('b'), ChannelModel::kReorder, 0);
  std::string key_a;
  std::string key_a_again;
  std::string key_b;
  ASSERT_TRUE(a.fingerprint(key_a));
  ASSERT_TRUE(b.fingerprint(key_b));
  EXPECT_EQ(key_a, key_b);  // nothing in flight yet
  for (Execution* e : {&a, &a_again, &b}) e->apply(invoke);
  ASSERT_TRUE(a.fingerprint(key_a));
  ASSERT_TRUE(a_again.fingerprint(key_a_again));
  ASSERT_TRUE(b.fingerprint(key_b));
  EXPECT_EQ(key_a, key_a_again);
  EXPECT_NE(key_a, key_b);  // same packet, different payload
  // Once the packet is delivered, the payload is no longer state.
  const std::vector<VerifyAction> next = a.enabled();
  ASSERT_EQ(next.size(), 1u);
  a.apply(next[0]);
  b.apply(b.enabled().at(0));
  ASSERT_TRUE(a.fingerprint(key_a));
  ASSERT_TRUE(b.fingerprint(key_b));
  EXPECT_EQ(key_a, key_b);
}

}  // namespace
}  // namespace msgorder
