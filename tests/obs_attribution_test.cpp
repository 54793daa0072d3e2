// Tests for inhibition attribution (ISSUE 4 tentpole): every registered
// protocol must report structured hold reasons whose per-phase segment
// durations sum *exactly* to the message's recorded send / delivery
// delay — the paper's inhibitor (Section 3.2), made measurable.
#include <gtest/gtest.h>

#include <string>

#include "src/obs/hold_soundness.hpp"
#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/obs/observability.hpp"
#include "src/protocols/registry.hpp"
#include "src/protocols/synthesized.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"

namespace msgorder {
namespace {

constexpr std::size_t kProcesses = 4;
constexpr std::size_t kMessages = 120;

SimResult attributed_run(const ProtocolFactory& factory, Observability& obs,
                         std::uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = kMessages;
  wopts.mean_gap = 0.3;           // hot workload: plenty of reordering
  wopts.red_fraction = 0.25;      // red messages exercise the flush family
  const Workload workload = random_workload(wopts, rng);
  SimOptions sopts;
  sopts.seed = seed ^ 0x9e3779b9;
  sopts.network.jitter_mean = 3.0;
  sopts.observability = &obs;
  return simulate(workload, factory, kProcesses, sopts);
}

/// The acceptance criterion: per message, summed per-reason hold time
/// of each phase equals that phase's recorded delay.  Boundary instants
/// are shared between consecutive segments and the engine closes the
/// last one at the exact event timestamp, so the identity is exact up
/// to floating-point summation noise.
void expect_exact_attribution(const std::string& name,
                              const ProtocolFactory& factory,
                              std::uint64_t seed) {
  SCOPED_TRACE(name);
  Observability obs;
  const SimResult result = attributed_run(factory, obs, seed);
  ASSERT_TRUE(result.completed) << result.error;
  const DelayAttribution* attr = obs.attribution();
  ASSERT_NE(attr, nullptr);
  ASSERT_EQ(attr->message_count(), kMessages);

  double total_held = 0;
  for (MessageId m = 0; m < kMessages; ++m) {
    const MessageTimes& t = result.trace.times(m);
    ASSERT_TRUE(t.complete()) << "x" << m;
    EXPECT_NEAR(attr->held_time(m, HoldPhase::kSend), t.send_delay(), 1e-9)
        << "x" << m << " send";
    EXPECT_NEAR(attr->held_time(m, HoldPhase::kDelivery),
                t.delivery_delay(), 1e-9)
        << "x" << m << " delivery";
    for (const HoldSegment& seg : attr->segments(m)) {
      EXPECT_NE(seg.reason.kind, HoldKind::kNone) << "x" << m;
      EXPECT_GE(seg.duration(), 0.0) << "x" << m;
      total_held += seg.duration();
    }
  }

  // Aggregates agree with the per-message table.
  double by_kind = 0;
  for (const SimTime t : attr->totals_by_kind()) by_kind += t;
  EXPECT_NEAR(by_kind, total_held, 1e-6);
  EXPECT_EQ(obs.instruments().hold_segments->value(),
            attr->segment_count());

  // The ISSUE-4 attribution contract, checked structurally: every hold
  // is closed, and every named blocker actually explains the hold (the
  // same oracle the exhaustive verifier applies to each explored run).
  for (const std::string& violation :
       hold_soundness_violations(result.trace, *attr)) {
    ADD_FAILURE() << violation;
  }
}

TEST(DelayAttribution, EveryRegisteredProtocolAttributesItsDelaysExactly) {
  std::uint64_t seed = 11;
  for (const RegisteredProtocol& rp : standard_protocols()) {
    expect_exact_attribution(rp.name, rp.factory, seed++);
  }
}

TEST(DelayAttribution, SynthesizedProtocolAttributesItsDelaysExactly) {
  const SynthesisResult synthesis = synthesize(causal_ordering());
  ASSERT_TRUE(synthesis.factory.has_value()) << synthesis.rationale;
  expect_exact_attribution("synthesized", *synthesis.factory, 99);
}

// Buffering protocols must produce *attributed* (non-empty) tables on an
// adversarial network; async, which never inhibits, must produce none.
TEST(DelayAttribution, BufferingProtocolsProduceSegmentsAsyncNone) {
  for (const RegisteredProtocol& rp : standard_protocols()) {
    SCOPED_TRACE(rp.name);
    Observability obs;
    const SimResult result = attributed_run(rp.factory, obs, 7);
    ASSERT_TRUE(result.completed) << result.error;
    const std::uint64_t segments = obs.attribution()->segment_count();
    if (rp.name == "async") {
      EXPECT_EQ(segments, 0u);
    } else if (rp.name == "fifo" || rp.name == "causal-rst" ||
               rp.name == "causal-ses" || rp.name == "flush" ||
               rp.name == "global-flush" || rp.name == "sync-token" ||
               rp.name == "sync-sequencer" || rp.name == "sync-locks") {
      EXPECT_GT(segments, 0u);
    }  // kweaker-1's inhibition needs deep chains; no expectation.
  }
}

// The blocking-cause detail: a fifo hold names the channel (source
// process) whose predecessor the buffered message waits for.
TEST(DelayAttribution, FifoHoldsNameTheBlockingChannel) {
  Observability obs;
  const SimResult result = attributed_run(
      standard_protocols()[1].factory, obs, 23);  // [1] == fifo
  ASSERT_TRUE(result.completed) << result.error;
  const DelayAttribution* attr = obs.attribution();
  std::size_t with_blocker = 0;
  for (MessageId m = 0; m < kMessages; ++m) {
    for (const HoldSegment& seg : attr->segments(m)) {
      EXPECT_EQ(seg.reason.kind, HoldKind::kWaitPredecessor);
      EXPECT_EQ(seg.phase, HoldPhase::kDelivery);
      if (seg.reason.blocking_proc.has_value()) {
        ++with_blocker;
        EXPECT_EQ(*seg.reason.blocking_proc, result.trace.universe()[m].src)
            << "fifo blocks on its own channel";
      }
    }
  }
  EXPECT_GT(with_blocker, 0u);
}

// When attribution is disabled, protocols skip reason computation and
// the report section is null — but metrics still flow.
TEST(DelayAttribution, DisabledAttributionLeavesNoTable) {
  Observability obs(ObservabilityOptions{.attribution = false});
  const SimResult result = attributed_run(
      standard_protocols()[1].factory, obs, 31);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(obs.attribution(), nullptr);
  EXPECT_EQ(obs.instruments().hold_segments->value(), 0u);
  EXPECT_GT(obs.instruments().events->value(), 0u);
}

// The run report's attribution section serializes and validates.
TEST(DelayAttribution, WriteJsonIsValid) {
  Observability obs;
  const SimResult result = attributed_run(
      standard_protocols()[2].factory, obs, 41);  // causal-rst
  ASSERT_TRUE(result.completed) << result.error;
  JsonWriter w;
  obs.attribution()->write_json(w);
  std::string error;
  ASSERT_TRUE(json_parse(w.str(), &error).has_value()) << error;
  EXPECT_NE(w.str().find("\"held_by_reason\""), std::string::npos);
  EXPECT_NE(w.str().find("\"wait_predecessor\""), std::string::npos);
}

}  // namespace
}  // namespace msgorder
