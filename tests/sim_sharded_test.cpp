// Sequential-vs-sharded equivalence (ISSUE 6): for every registry
// stack, for synthesized protocols, and for the lossy/timer-driven
// reliability layer, the sharded engine must produce a SimResult whose
// trace is bit-identical to the sequential engine's — same per-process
// event logs with the same timestamps, same lifecycle times, same
// overhead counters, same completion flag — at shards ∈ {1, 2, 4},
// cooperative or threaded.  Plus: global event-cap enforcement naming
// the shard, the zero-lookahead sequential fallback, observers replayed
// in the sequential order, and metrics/attribution equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/registry.hpp"
#include "src/protocols/reliable.hpp"
#include "src/protocols/synthesized.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"

namespace msgorder {
namespace {

Workload make_workload(std::size_t n_processes, std::size_t n_messages,
                       std::uint64_t seed, double red_fraction = 0.25) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.n_processes = n_processes;
  wopts.n_messages = n_messages;
  wopts.mean_gap = 0.3;  // hot: plenty of cross-window traffic
  wopts.red_fraction = red_fraction;
  return random_workload(wopts, rng);
}

SimOptions adversarial_options(std::uint64_t seed) {
  SimOptions sopts;
  sopts.seed = seed;
  sopts.network.jitter_mean = 3.0;  // aggressive reordering
  return sopts;
}

/// Full structural equality of two traces: logs (events and exact
/// times), per-message lifecycle times, and every overhead counter.
void expect_traces_identical(const Trace& a, const Trace& b,
                             const std::string& label) {
  ASSERT_EQ(a.logs().size(), b.logs().size()) << label;
  for (std::size_t p = 0; p < a.logs().size(); ++p) {
    const auto& la = a.logs()[p];
    const auto& lb = b.logs()[p];
    ASSERT_EQ(la.size(), lb.size()) << label << " process " << p;
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].event, lb[i].event)
          << label << " process " << p << " index " << i;
      EXPECT_EQ(la[i].time, lb[i].time)  // bit-identical, not approximate
          << label << " process " << p << " index " << i;
    }
  }
  ASSERT_EQ(a.universe().size(), b.universe().size()) << label;
  for (MessageId m = 0; m < a.universe().size(); ++m) {
    EXPECT_EQ(a.times(m), b.times(m)) << label << " message " << m;
  }
  EXPECT_EQ(a.invoked(), b.invoked()) << label;
  EXPECT_EQ(a.delivered(), b.delivered()) << label;
  EXPECT_EQ(a.control_packets(), b.control_packets()) << label;
  EXPECT_EQ(a.user_packets(), b.user_packets()) << label;
  EXPECT_EQ(a.control_bytes(), b.control_bytes()) << label;
  EXPECT_EQ(a.tag_bytes(), b.tag_bytes()) << label;
  EXPECT_EQ(a.drops(), b.drops()) << label;
  EXPECT_EQ(a.retransmissions(), b.retransmissions()) << label;
  EXPECT_EQ(a.duplicate_arrivals(), b.duplicate_arrivals()) << label;
}

void expect_equivalent(const ProtocolFactory& factory,
                       const std::string& label, std::size_t n_processes,
                       std::size_t n_messages, std::uint64_t seed,
                       SimOptions base_options) {
  const Workload workload = make_workload(n_processes, n_messages, seed);
  base_options.shards = 1;
  const SimResult sequential =
      simulate(workload, factory, n_processes, base_options);
  EXPECT_EQ(sequential.shards_used, 1u) << label;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SimOptions sopts = base_options;
    sopts.shards = shards;
    const SimResult sharded =
        simulate(workload, factory, n_processes, sopts);
    const std::string run_label =
        label + " shards=" + std::to_string(shards);
    EXPECT_EQ(sharded.shards_used,
              std::min(shards, n_processes))
        << run_label;
    EXPECT_EQ(sharded.completed, sequential.completed) << run_label;
    EXPECT_EQ(sharded.error, sequential.error) << run_label;
    expect_traces_identical(sequential.trace, sharded.trace, run_label);
  }
}

TEST(ShardedEquivalence, AllRegistryStacks) {
  for (const RegisteredProtocol& reg : standard_protocols()) {
    expect_equivalent(reg.factory, reg.name, 6, 160, 0x5eed + 1,
                      adversarial_options(0xabba));
  }
}

TEST(ShardedEquivalence, RegistryStacksSecondSeedAndFifoNetwork) {
  SimOptions sopts = adversarial_options(0xc0ffee);
  sopts.network.fifo_channels = true;
  for (const RegisteredProtocol& reg : standard_protocols()) {
    expect_equivalent(reg.factory, reg.name + "+fifo-net", 5, 120, 77,
                      sopts);
  }
}

TEST(ShardedEquivalence, SynthesizedProtocols) {
  const SynthesisResult fifo_like = synthesize(fifo());
  ASSERT_TRUE(fifo_like.factory.has_value()) << fifo_like.rationale;
  expect_equivalent(*fifo_like.factory, "synthesized-fifo", 6, 140, 11,
                    adversarial_options(0xfeed));

  const SynthesisResult causal_like = synthesize(causal_ordering());
  ASSERT_TRUE(causal_like.factory.has_value()) << causal_like.rationale;
  expect_equivalent(*causal_like.factory, "synthesized-causal", 6, 140, 12,
                    adversarial_options(0xbead));

  const SynthesisResult sync_like = synthesize(mobile_handoff());
  ASSERT_TRUE(sync_like.factory.has_value()) << sync_like.rationale;
  expect_equivalent(*sync_like.factory, "synthesized-sync", 6, 120, 13,
                    adversarial_options(0xface));
}

TEST(ShardedEquivalence, LossyNetworkWithTimers) {
  // The reliability layer retransmits on timers over a lossy network:
  // exercises the timer key path and the per-process loss streams.
  SimOptions sopts = adversarial_options(0xdead);
  sopts.network.loss_probability = 0.1;
  expect_equivalent(ReliableProtocol::wrap(AsyncProtocol::factory()),
                    "reliable(async)+loss", 6, 120, 21, sopts);
}

TEST(ShardedEquivalence, ThreadedWorkersMatchCooperative) {
  // Force real threads (workers == shards) and compare against both the
  // sequential engine and the cooperative single-worker sharded run.
  const Workload workload = make_workload(6, 160, 99);
  const ProtocolFactory factory = standard_protocols()[1].factory;  // fifo
  SimOptions sequential_opts = adversarial_options(31);
  sequential_opts.shards = 1;
  const SimResult sequential = simulate(workload, factory, 6, sequential_opts);

  SimOptions threaded_opts = adversarial_options(31);
  threaded_opts.shards = 4;
  threaded_opts.shard_workers = 4;
  const SimResult threaded = simulate(workload, factory, 6, threaded_opts);
  EXPECT_EQ(threaded.workers_used, 4u);

  SimOptions coop_opts = adversarial_options(31);
  coop_opts.shards = 4;
  coop_opts.shard_workers = 1;
  const SimResult cooperative = simulate(workload, factory, 6, coop_opts);
  EXPECT_EQ(cooperative.workers_used, 1u);

  expect_traces_identical(sequential.trace, threaded.trace, "threaded");
  expect_traces_identical(sequential.trace, cooperative.trace,
                          "cooperative");
}

std::string attribution_json(const Observability& obs) {
  JsonWriter w;
  obs.attribution()->write_json(w);
  return w.take();
}

TEST(ShardedEquivalence, MetricsAndAttributionMatch) {
  // Threaded 4-shard runs replay observability window by window in the
  // barrier's completion step; the metrics registry, the attribution
  // table and the flight-recorder tail must still serialize exactly as
  // the one-shard run's, which feeds the sink inline.
  const Workload workload = make_workload(6, 300, 5);
  for (const RegisteredProtocol& reg : standard_protocols()) {
    auto run_with_obs = [&](std::size_t shards, Observability& obs) {
      SimOptions sopts = adversarial_options(17);
      sopts.shards = shards;
      sopts.shard_workers = shards;
      sopts.observability = &obs;
      return simulate(workload, reg.factory, 6, sopts);
    };
    const ObservabilityOptions oopts{.flight_recorder = true, .label = "x"};
    Observability obs_seq(oopts);
    Observability obs_shard(oopts);
    const SimResult sequential = run_with_obs(1, obs_seq);
    const SimResult sharded = run_with_obs(4, obs_shard);
    ASSERT_EQ(sharded.workers_used, 4u) << reg.name;
    EXPECT_EQ(sequential.completed, sharded.completed) << reg.name;
    expect_traces_identical(sequential.trace, sharded.trace,
                            reg.name + " obs");
    // The whole metrics registry serializes identically: counters,
    // histograms (latency, per-reason hold times), gauge watermarks.
    EXPECT_EQ(obs_seq.metrics().to_json(), obs_shard.metrics().to_json())
        << reg.name;
    ASSERT_NE(obs_seq.attribution(), nullptr);
    ASSERT_NE(obs_shard.attribution(), nullptr);
    EXPECT_EQ(attribution_json(obs_seq), attribution_json(obs_shard))
        << reg.name;
    ASSERT_NE(obs_seq.flight_recorder(), nullptr);
    ASSERT_NE(obs_shard.flight_recorder(), nullptr);
    EXPECT_GT(obs_seq.flight_recorder()->total_records(), 0u) << reg.name;
    EXPECT_EQ(obs_seq.flight_recorder()->to_json(),
              obs_shard.flight_recorder()->to_json())
        << reg.name;
  }
}

TEST(ShardedEquivalence, MergePhaseObserverSeesSequentialOrder) {
  const Workload workload = make_workload(5, 100, 7);
  const ProtocolFactory factory = standard_protocols()[1].factory;
  auto capture = [&](std::size_t shards,
                     std::vector<std::pair<ProcessId, SystemEvent>>& out) {
    SimOptions sopts = adversarial_options(23);
    sopts.shards = shards;
    sopts.observers.add(
        [&out](ProcessId p, SystemEvent e, SimTime) {
          out.emplace_back(p, e);
        });
    return simulate(workload, factory, 5, sopts);
  };
  std::vector<std::pair<ProcessId, SystemEvent>> seq_events;
  std::vector<std::pair<ProcessId, SystemEvent>> shard_events;
  ASSERT_TRUE(capture(1, seq_events).completed);
  ASSERT_TRUE(capture(4, shard_events).completed);
  ASSERT_EQ(seq_events.size(), shard_events.size());
  EXPECT_EQ(seq_events, shard_events);  // identical global order
}

TEST(ShardedSimulator, ZeroLookaheadFallsBackToSequential) {
  const Workload workload = make_workload(4, 40, 3);
  SimOptions sopts = adversarial_options(41);
  sopts.network.base_delay = 0.0;  // lookahead gone
  sopts.shards = 4;
  const SimResult result =
      simulate(workload, AsyncProtocol::factory(), 4, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.shards_used, 1u);
  EXPECT_EQ(result.workers_used, 1u);
}

TEST(ShardedSimulator, AutoShardsRunsAndMatchesSequential) {
  const Workload workload = make_workload(6, 120, 13);
  SimOptions auto_opts = adversarial_options(43);
  auto_opts.shards = 0;  // auto
  const SimResult auto_run =
      simulate(workload, AsyncProtocol::factory(), 6, auto_opts);
  ASSERT_TRUE(auto_run.completed) << auto_run.error;
  EXPECT_GE(auto_run.shards_used, 1u);
  EXPECT_LE(auto_run.shards_used, 6u);
  SimOptions seq_opts = adversarial_options(43);
  const SimResult sequential =
      simulate(workload, AsyncProtocol::factory(), 6, seq_opts);
  expect_traces_identical(sequential.trace, auto_run.trace, "auto");
}

TEST(ShardedSimulator, EventCapIsGlobalAndNamesTheShard) {
  const Workload workload = make_workload(6, 400, 19);
  SimOptions sopts = adversarial_options(47);
  sopts.shards = 4;
  // 400 messages need >= 1600 events; cap far below that, but above
  // what any single shard alone would hit in one window.
  sopts.max_events = 200;
  const SimResult result =
      simulate(workload, AsyncProtocol::factory(), 6, sopts);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("event cap exceeded in shard"),
            std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("of 4"), std::string::npos) << result.error;

  // Sequential cap message carries the same shape.
  SimOptions seq_opts = adversarial_options(47);
  seq_opts.max_events = 200;
  const SimResult seq_result =
      simulate(workload, AsyncProtocol::factory(), 6, seq_opts);
  EXPECT_FALSE(seq_result.completed);
  EXPECT_NE(seq_result.error.find("event cap exceeded in shard 0 of 1"),
            std::string::npos)
      << seq_result.error;
}

}  // namespace
}  // namespace msgorder
