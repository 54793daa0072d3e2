// The verifier's clean-stack gate (ISSUE 10): every registry stack and
// the synthesized causal stack must verify on the whole standard
// scenario set at (3 processes, 4 messages) under both FIFO and
// reordering channels, the msgorder.verify/2 artifact must validate,
// and the --quick budget must degrade to "bounded" — never to a false
// "verified".
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <sstream>
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
  EXPECT_NE(w.str().find("\"schema\":\"msgorder.verify/2\""),
            std::string::npos);
  EXPECT_NE(w.str().find("\"verdict\":\"failed\""), std::string::npos);
  EXPECT_NE(w.str().find("\"counterexample\""), std::string::npos);
  // The spec-memo, state-key and backtracking counters ride along per
  // scenario, per stack and in total.
  VerifyCounters total;
  for (const StackReport& report : reports) total += report.counters_total;
  EXPECT_GT(total.spec_checks, 0u);
  EXPECT_GT(total.interned_hosts, 0u);
  EXPECT_GT(total.reinterned, 0u);
  EXPECT_GT(total.restored_hosts, 0u);
  EXPECT_NE(w.str().find("\"restored_hosts_total\":" +
                         std::to_string(total.restored_hosts)),
            std::string::npos);
  EXPECT_EQ(w.str().find("replay"), std::string::npos);
  EXPECT_NE(w.str().find("\"spec_checks_total\":" +
                         std::to_string(total.spec_checks)),
            std::string::npos);
  EXPECT_NE(w.str().find("\"reinterned_total\":" +
                         std::to_string(total.reinterned)),
            std::string::npos);
  for (const char* key :
       {"\"spec_memo_hits\":", "\"interned_hosts\":",
        "\"interned_channels\":", "\"interned_packets\":",
        "\"interned_history_nodes\":", "\"reinterned\":",
        "\"restored_hosts\":"}) {
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
  bool restore(codec::Reader& in) override {
    (void)in;
    return true;
  }

 private:
  Host& host_;
  const std::uint8_t& byte_;
};

/// The test-local reference path into a state: a fresh reset, then
/// every action of `schedule` in order.
void reach(Execution& exec, const std::vector<VerifyAction>& schedule) {
  exec.reset();
  for (const VerifyAction& a : schedule) exec.apply(a);
}

std::vector<std::uint32_t> key_of(Execution& exec) {
  std::span<const std::uint32_t> key;
  EXPECT_TRUE(exec.state_key(&key));
  return {key.begin(), key.end()};
}

TEST(VerifyExecution, InFlightPayloadIsPartOfTheStateKey) {
  // Keys are ids from one execution's tables, so every state is reached
  // in the same execution, switching the payload between runs.
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
    reach(exec, schedule);
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

TEST(VerifyExecution, WrapPendingPacketIsPartOfTheStateKey) {
  // Under the reliability wrap, a delivered packet stays pending at its
  // sender until the ack arrives: the two runs below then differ only
  // in the payload the sender would retransmit.
  Scenario one;
  one.name = "one";
  one.n_processes = 2;
  one.messages.push_back({0, 0, 1, 0, -1});
  std::uint8_t byte = 'a';
  Execution exec(one,
                 ReliableProtocol::wrap([&byte](Host& host) {
                   return std::make_unique<PayloadByteProtocol>(host, byte);
                 }),
                 ChannelModel::kReorder, 0);
  const std::vector<VerifyAction> delivered = {
      {VerifyAction::Kind::kInvoke, 0, 0, 0},
      {VerifyAction::Kind::kDeliver, 1, 0, 0}};
  byte = 'a';
  reach(exec, delivered);
  const auto pending_a = key_of(exec);
  byte = 'b';
  reach(exec, delivered);
  EXPECT_NE(key_of(exec), pending_a);
}

/// A host for protocol instances built outside an execution, which the
/// restore round trip below restores into.  Restoring never calls the
/// host; constructors may ask who they are, or send (the token ring).
class IdleHost final : public Host {
 public:
  IdleHost(const Scenario& scenario, ProcessId self)
      : scenario_(scenario), self_(self) {}
  void send_packet(Packet packet) override { (void)packet; }
  void deliver(MessageId msg) override { (void)msg; }
  void set_timer(SimTime delay, std::uint64_t cookie) override {
    (void)delay;
    (void)cookie;
  }
  SimTime now() const override { return 0; }
  ProcessId self() const override { return self_; }
  std::size_t process_count() const override {
    return scenario_.n_processes;
  }
  const Message& message(MessageId msg) const override {
    return scenario_.messages[msg];
  }

 private:
  const Scenario& scenario_;
  ProcessId self_;
};

std::string schedule_text(const std::vector<VerifyAction>& schedule) {
  std::string out;
  for (const VerifyAction& a : schedule) out += " " + to_string(a);
  return out;
}

/// Walks every reachable state of `exec` (no reduction, deduplicated on
/// the state key) and runs `at_state` at each (the schedule leads
/// there).  Stepping back, it moves the way the verifier does: a
/// checkpoint per state and rewind() before each successor after the
/// first.  Otherwise each successor is reached by the reference path, a
/// reset and the whole schedule.  Both walks visit states in the same
/// order.  Returns the number of distinct states.
std::size_t walk(
    Execution& exec, bool stepping_back,
    const std::function<void(const std::vector<VerifyAction>&)>& at_state) {
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<VerifyAction> schedule;
  std::function<void()> visit = [&] {
    at_state(schedule);
    if (!seen.insert(key_of(exec)).second) return;
    std::vector<VerifyAction> actions;
    exec.enabled(actions);
    if (stepping_back) {
      EXPECT_TRUE(exec.push_checkpoint());
    }
    for (const VerifyAction& a : actions) {
      schedule.push_back(a);
      if (stepping_back) {
        EXPECT_TRUE(exec.rewind());
        exec.apply(a);
      } else {
        reach(exec, schedule);
      }
      visit();
      schedule.pop_back();
    }
    if (stepping_back) exec.pop_checkpoint();
  };
  reach(exec, {});
  visit();
  return seen.size();
}

/// Runs `check` on the execution of every target on every standard
/// scenario: at 3 x 4 on reordering and FIFO channels, and for fifo
/// under the reliability wrap on the lossy model at 3 x 3 (drops,
/// retransmission timers and duplicates).
void for_each_execution(
    const std::function<void(Execution&, const ProtocolFactory&,
                             const Scenario&, const std::string&)>& check) {
  for (const ChannelModel model :
       {ChannelModel::kReorder, ChannelModel::kFifo}) {
    for (const VerifyTarget& target : verify_targets(true)) {
      for (const Scenario& scenario : standard_scenarios(kProcs, kMsgs)) {
        Execution exec(scenario, target.factory, model, 0);
        check(exec, target.factory, scenario,
              target.name + " / " + scenario.name + " / " + to_string(model));
      }
    }
  }
  const ProtocolFactory lossy =
      ReliableProtocol::wrap(find_verify_target("fifo")->factory, {});
  for (const Scenario& scenario : standard_scenarios(kProcs, 3)) {
    Execution exec(scenario, lossy, ChannelModel::kLossy, 1);
    check(exec, lossy, scenario, "lossy fifo / " + scenario.name);
  }
}

TEST(VerifyStateKey, IncrementalKeyEqualsFullRekeyAtEveryState) {
  // Every state is entered by an apply(), most of them right after a
  // rewind() that resumed the key caches at a checkpoint's key.
  for_each_execution([](Execution& exec, const ProtocolFactory&,
                        const Scenario&, const std::string& where) {
    const std::size_t states = walk(
        exec, true, [&](const std::vector<VerifyAction>& schedule) {
          const std::vector<std::uint32_t> incremental = key_of(exec);
          exec.invalidate_key();
          if (incremental != key_of(exec)) {
            ADD_FAILURE() << where << ": incremental key differs after"
                          << schedule_text(schedule);
          }
        });
    EXPECT_GT(states, 1u) << where;
  });
}

/// What a state's path data looks like from outside: the trace's event
/// logs, counters and timestamps, the attribution's closed segments and
/// open holds, and the enabled actions (so packet uids and queue order).
std::string path_text(const Execution& exec) {
  std::ostringstream out;
  const Trace& trace = exec.trace();
  for (const auto& log : trace.logs()) {
    out << "|";
    for (const TimedEvent& e : log) {
      out << " " << to_string(e.event) << "@" << e.time;
    }
  }
  const TraceCounts c = trace.counts();
  out << "| counts " << c.invoked << " " << c.delivered << " "
      << c.control_packets << " " << c.user_packets << " " << c.control_bytes
      << " " << c.tag_bytes << " " << c.drops << " " << c.retransmissions
      << " " << c.duplicate_arrivals << " steps " << exec.steps();
  for (const Message& m : trace.universe()) {
    const MessageTimes& t = trace.times(m.id);
    out << " x" << m.id << ":" << t.invoke.value_or(-1) << ","
        << t.send.value_or(-1) << "," << t.receive.value_or(-1) << ","
        << t.deliver.value_or(-1)
        << (exec.attribution().has_open_hold(m.id) ? " open" : "");
  }
  const DelayAttribution& attribution = exec.attribution();
  out << " segments";
  for (const HoldSegment& s : attribution.closed_segments()) {
    out << " x" << s.msg << "@" << s.process << ":" << s.begin << "-"
        << s.end << ":" << to_string(s.reason.kind);
  }
  for (const SimTime total : attribution.totals_by_kind()) out << " " << total;
  std::vector<VerifyAction> actions;
  exec.enabled(actions);
  out << " enabled" << schedule_text(actions);
  return out.str();
}

TEST(VerifyRestore, StepBackMatchesResetAndApplyAtEveryState) {
  // The oracle for restore(): walking by checkpoints and rewind() must
  // reach exactly the states a fresh reset + apply of the same schedule
  // reaches — the same key (so every host restored the state its
  // snapshot names, and no snapshot leaves out what its next step
  // reads) and the same path data.  Each host's snapshot must also
  // survive a restore into a fresh instance unchanged.
  for_each_execution([](Execution& exec, const ProtocolFactory& factory,
                        const Scenario& scenario, const std::string& where) {
    std::vector<IdleHost> idle_hosts;
    std::vector<std::unique_ptr<Protocol>> fresh;
    for (ProcessId p = 0; p < scenario.n_processes; ++p) {
      idle_hosts.emplace_back(scenario, p);
    }
    for (ProcessId p = 0; p < scenario.n_processes; ++p) {
      fresh.push_back(factory(idle_hosts[p]));
    }
    // Keys are ids of this execution's tables, so the reference walk
    // runs first, in the same execution.
    std::vector<std::pair<std::vector<std::uint32_t>, std::string>> reference;
    walk(exec, false, [&](const std::vector<VerifyAction>&) {
      reference.emplace_back(key_of(exec), path_text(exec));
    });
    std::size_t visited = 0;
    bool diverged = false;
    std::string before;
    std::string after;
    walk(exec, true, [&](const std::vector<VerifyAction>& schedule) {
      if (diverged) return;
      for (ProcessId p = 0; p < scenario.n_processes; ++p) {
        before.clear();
        after.clear();
        ASSERT_TRUE(exec.protocol(p).snapshot(before));
        codec::Reader in(before);
        ASSERT_TRUE(fresh[p]->restore(in)) << where;
        EXPECT_TRUE(in.done()) << where;
        ASSERT_TRUE(fresh[p]->snapshot(after));
        if (after != before) {
          diverged = true;
          ADD_FAILURE() << where << ": p" << p
                        << " snapshot changed by a restore after"
                        << schedule_text(schedule);
        }
      }
      if (visited >= reference.size() ||
          key_of(exec) != reference[visited].first ||
          path_text(exec) != reference[visited].second) {
        diverged = true;
        ADD_FAILURE() << where << ": stepping back diverges from reset + "
                      << "apply after" << schedule_text(schedule) << "\n  got  "
                      << path_text(exec) << "\n  want "
                      << (visited < reference.size()
                              ? reference[visited].second
                              : "(no such state)");
      }
      ++visited;
    });
    if (!diverged) {
      EXPECT_EQ(visited, reference.size()) << where;
    }
  });
}

/// Async's behaviour, with a snapshot but, when `restores` is false, no
/// restore() — the verifier can key its states but not step back.
class NoRestoreProtocol final : public Protocol {
 public:
  NoRestoreProtocol(Host& host, bool snapshots)
      : host_(host), snapshots_(snapshots) {}
  void on_invoke(const Message& m) override {
    Packet pkt;
    pkt.dst = m.dst;
    pkt.user_msg = m.id;
    host_.send_packet(std::move(pkt));
  }
  void on_packet(const Packet& packet) override {
    host_.deliver(packet.user_msg);
  }
  std::string name() const override { return "no-restore"; }
  bool snapshot(std::string& out) const override {
    (void)out;
    return snapshots_;
  }

 private:
  Host& host_;
  bool snapshots_;
};

TEST(VerifyClean, StackWithoutSnapshotOrRestoreIsUnsupported) {
  // Backtracking restores protocol instances from their snapshots, so
  // a stack missing either hook fails; nothing falls back to another
  // way of backtracking.
  Scenario burst;
  burst.name = "burst";
  burst.n_processes = 2;
  burst.messages.push_back({0, 0, 1, 0, -1});
  burst.messages.push_back({1, 0, 1, 0, -1});
  for (const bool snapshots : {true, false}) {
    for (const bool cache : {true, false}) {
      VerifyOptions options;
      options.state_cache = cache;
      const ScenarioResult r = verify_scenario(
          burst,
          [snapshots](Host& host) {
            return std::make_unique<NoRestoreProtocol>(host, snapshots);
          },
          CompositeSpec{}, options);
      EXPECT_EQ(r.verdict, "unsupported") << snapshots << cache;
      EXPECT_NE(r.detail.find("restore()"), std::string::npos);
      EXPECT_FALSE(r.ok());
    }
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
