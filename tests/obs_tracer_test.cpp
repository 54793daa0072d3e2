// Tests for the Chrome-trace renderer: the trace of a finished
// simulation must be well-formed Chrome Trace Event JSON with one named
// track per process, the full four-event lifecycle of every delivered
// message, and a flow arrow per causal send->receive edge — rendered
// from the run's Trace and attribution log alone, identically at every
// shard count.
#include <gtest/gtest.h>

#include <string>

#include "src/obs/json_value.hpp"
#include "src/obs/observability.hpp"
#include "src/obs/tracer.hpp"
#include "src/protocols/fifo.hpp"
#include "src/sim/simulator.hpp"

namespace msgorder {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

constexpr std::size_t kProcesses = 3;
constexpr std::size_t kMessages = 25;

SimResult traced_run(Observability& obs, std::size_t shards = 1,
                     std::size_t n_processes = kProcesses,
                     std::size_t n_messages = kMessages) {
  Rng rng(5);
  WorkloadOptions wopts;
  wopts.n_processes = n_processes;
  wopts.n_messages = n_messages;
  const Workload workload = random_workload(wopts, rng);
  SimOptions sopts;
  sopts.seed = 9;
  sopts.shards = shards;
  sopts.network.jitter_mean = 2.0;
  sopts.observability = &obs;
  return simulate(workload, FifoProtocol::factory(), n_processes, sopts);
}

TEST(ChromeTrace, EveryDeliveredMessageHasACompleteSpan) {
  Observability obs;
  const SimResult result = traced_run(obs);
  ASSERT_TRUE(result.completed) << result.error;

  const std::string json = chrome_trace_json(result.trace, obs);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"thread_name\""), kProcesses);
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"lifecycle\""), 4 * kMessages);
  for (std::size_t m = 0; m < kMessages; ++m) {
    const std::string label = "\"name\":\"x" + std::to_string(m);
    EXPECT_EQ(count_occurrences(json, label + " buffer\""), 1u) << "x" << m;
  }
}

TEST(ChromeTrace, IsValidJsonWithTracksSpansAndFlows) {
  Observability obs;
  const SimResult result = traced_run(obs);
  ASSERT_TRUE(result.completed) << result.error;

  const std::string json = chrome_trace_json(result.trace, obs);
  std::string error;
  ASSERT_TRUE(json_parse(json, &error).has_value()) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  // One named track (thread) per simulated process.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"thread_name\""), kProcesses);
  for (std::size_t p = 0; p < kProcesses; ++p) {
    EXPECT_NE(json.find("\"name\":\"P" + std::to_string(p) + "\""),
              std::string::npos)
        << "track P" << p;
  }

  // The four lifecycle instants, in the paper's notation, per message.
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"lifecycle\""), 4 * kMessages);
  EXPECT_NE(json.find("\"name\":\"x0.s*\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"x0.s\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"x0.r*\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"x0.r\""), std::string::npos);

  // Hold + buffer interval per message (complete spans, ph "X"), plus
  // one attributed inhibition slice per hold segment (ISSUE 4; a fifo
  // run on a jittered network inevitably buffers some deliveries).
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"hold\""), kMessages);
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"buffer\""), kMessages);
  const std::size_t inhibits = obs.attribution()->segment_count();
  EXPECT_GT(inhibits, 0u);
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"inhibit\""), inhibits);
  EXPECT_NE(json.find("\"reason\":\"wait_predecessor\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""),
            2 * kMessages + inhibits);

  // One flow arrow (start + finish) per causal send->receive edge.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"s\""), kMessages);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"f\""), kMessages);
  EXPECT_EQ(count_occurrences(json, "\"bp\":\"e\""), kMessages);
}

TEST(ChromeTrace, ShardedRenderIsByteIdenticalToOneShard) {
  constexpr std::size_t kShardedProcesses = 8;
  constexpr std::size_t kShardedMessages = 400;
  Observability seq;
  Observability sharded;
  const SimResult seq_result =
      traced_run(seq, 1, kShardedProcesses, kShardedMessages);
  const SimResult sharded_result =
      traced_run(sharded, 4, kShardedProcesses, kShardedMessages);
  ASSERT_TRUE(seq_result.completed) << seq_result.error;
  ASSERT_TRUE(sharded_result.completed) << sharded_result.error;
  ASSERT_EQ(sharded_result.shards_used, 4u);
  ASSERT_NE(seq.attribution(), nullptr);
  ASSERT_GT(seq.attribution()->segment_count(), 0u);

  const std::string seq_json = chrome_trace_json(seq_result.trace, seq);
  EXPECT_EQ(chrome_trace_json(sharded_result.trace, sharded), seq_json);
  EXPECT_EQ(count_occurrences(seq_json, "\"cat\":\"inhibit\""),
            seq.attribution()->segment_count());
}

TEST(ChromeTrace, PartialLifecyclesNeverEmitFlowsOrBuffers) {
  // Only x0's invoke+send happened: a hold slice and instants, but no
  // receive-side artifacts, and x1 (never invoked) renders nothing.
  Trace trace({Message{0, 1, 2}, Message{1, 0, 1}}, 3);
  trace.record(1, SystemEvent{0, EventKind::kInvoke}, 1.0);
  trace.record(1, SystemEvent{0, EventKind::kSend}, 1.5);
  const Observability obs;
  const std::string json = chrome_trace_json(trace, obs);
  std::string error;
  ASSERT_TRUE(json_parse(json, &error).has_value()) << error;
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"lifecycle\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"hold\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"cat\":\"buffer\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"s\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"f\""), 0u);
  EXPECT_EQ(json.find("\"name\":\"x1"), std::string::npos);
  // Tracks run up to the highest process the run touched (P1).
  EXPECT_EQ(count_occurrences(json, "\"name\":\"thread_name\""), 2u);
  EXPECT_NE(json.find("\"ts\":1500"), std::string::npos) << json;
}

}  // namespace
}  // namespace msgorder
