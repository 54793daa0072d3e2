// Golden trace digests for the one-shard engine.  Every registry stack
// runs three cases at shards = 1 and must reproduce a recorded digest of
// its full SimResult trace:
//
//   * zero lookahead — base_delay 0 with jitter, so windows hold one
//     entry each;
//   * instant — no delay at all, so every arrival lands at the instant
//     it was sent, between pending keys of equal time, and completion or
//     the event cap (sync-token's token circulates at time 0 forever)
//     is decided between two entries;
//   * lossy reliable — every stack wrapped in the reliability layer over
//     a network that drops 10% of packets, so timers, retransmissions,
//     duplicate arrivals and the per-process loss streams all shape the
//     run.
//
// The digests were recorded from the former dedicated sequential event
// loop; matching them pins that the shard engine's one-shard case kept
// its exact execution order, timestamps and overhead counters.  A
// mismatch means the simulator's observable behaviour changed — update a
// digest only together with a stated, intended semantic change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "src/protocols/registry.hpp"
#include "src/protocols/reliable.hpp"
#include "src/sim/simulator.hpp"

namespace msgorder {
namespace {

constexpr std::size_t kProcesses = 5;
constexpr std::size_t kMessages = 80;

struct Golden {
  const char* stack;
  std::uint64_t zero_lookahead;
  std::uint64_t instant;
  std::uint64_t lossy_reliable;
};

// One row per standard_protocols() entry, in registry order.
constexpr Golden kGolden[] = {
    {"async", 0x1ca591a781cd7096ULL, 0xa2dd08d8211da1d9ULL,
     0x4eac4f71c5ce01a7ULL},
    {"fifo", 0xf3d6e37bce3c1980ULL, 0x323913978a6326fcULL,
     0x4c451419056c16b9ULL},
    {"causal-rst", 0x18b186ac65d2db54ULL, 0xc8ae10e30c275115ULL,
     0x3037b8d43903b487ULL},
    {"causal-ses", 0xe16840a887f3dc6dULL, 0x4aab92a308b3fbc8ULL,
     0x46f73c7abcd82b16ULL},
    {"kweaker-1", 0x7399d4ba822ad134ULL, 0x17628c09753eacb9ULL,
     0x5d8068639139ad26ULL},
    {"flush", 0x167b12fef53def89ULL, 0xa5602f6e7b607c9fULL,
     0x937ddbc08f99e6f9ULL},
    {"global-flush", 0x2fb7c7255793f762ULL, 0x5d75294fdbff2e59ULL,
     0xf1c9601953ffdd11ULL},
    {"sync-sequencer", 0x3459f725cdb24e41ULL, 0xc05d3f67cd49d1c1ULL,
     0x83308688e67033c2ULL},
    {"sync-token", 0xe0a1f6dbabc253f3ULL, 0xe50bf4c802b80d98ULL,
     0xd63f5258a796539fULL},
    {"sync-locks", 0x437aea60391b04adULL, 0x81fcefd57c09d84dULL,
     0x932adc2344573a74ULL},
};

/// FNV-style fold of every per-process log entry (message, kind, exact
/// time bits) in log order, then every overhead counter, the completion
/// flag and the error text.
std::uint64_t trace_digest(const SimResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  const Trace& trace = result.trace;
  for (std::size_t p = 0; p < trace.logs().size(); ++p) {
    mix(p);
    for (const TimedEvent& te : trace.logs()[p]) {
      mix(te.event.msg);
      mix(static_cast<std::uint64_t>(te.event.kind));
      mix(std::bit_cast<std::uint64_t>(te.time));
    }
  }
  for (const std::size_t counter :
       {trace.invoked(), trace.delivered(), trace.control_packets(),
        trace.user_packets(), trace.control_bytes(), trace.tag_bytes(),
        trace.drops(), trace.retransmissions(),
        trace.duplicate_arrivals()}) {
    mix(counter);
  }
  mix(result.completed ? 1 : 0);
  for (const char c : result.error) mix(static_cast<unsigned char>(c));
  return h;
}

Workload golden_workload(std::uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = kMessages;
  wopts.mean_gap = 0.3;
  wopts.red_fraction = 0.25;
  return random_workload(wopts, rng);
}

SimOptions zero_lookahead_options() {
  SimOptions sopts;
  sopts.seed = 0x5a5a;
  sopts.network.base_delay = 0.0;
  sopts.network.jitter_mean = 3.0;
  return sopts;
}

SimOptions instant_options() {
  SimOptions sopts = zero_lookahead_options();
  sopts.network.jitter_mean = 0.0;
  sopts.max_events = 100'000;
  return sopts;
}

SimOptions lossy_options() {
  SimOptions sopts;
  sopts.seed = 0x10557;
  sopts.network.jitter_mean = 3.0;
  sopts.network.loss_probability = 0.1;
  return sopts;
}

SimResult run(const ProtocolFactory& factory, SimOptions sopts,
              std::size_t shards) {
  sopts.shards = shards;
  return simulate(golden_workload(0x901d), factory, kProcesses, sopts);
}

TEST(SimGolden, TableCoversTheRegistry) {
  const auto stacks = standard_protocols();
  ASSERT_EQ(stacks.size(), std::size(kGolden));
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    EXPECT_EQ(stacks[i].name, kGolden[i].stack) << "row " << i;
  }
}

TEST(SimGolden, ZeroLookaheadDigests) {
  const auto stacks = standard_protocols();
  for (std::size_t i = 0; i < stacks.size() && i < std::size(kGolden); ++i) {
    const SimResult result =
        run(stacks[i].factory, zero_lookahead_options(), 1);
    EXPECT_TRUE(result.completed) << stacks[i].name << ": " << result.error;
    EXPECT_EQ(result.shards_used, 1u) << stacks[i].name;
    EXPECT_EQ(trace_digest(result), kGolden[i].zero_lookahead)
        << stacks[i].name;
    // A shard request cannot apply without lookahead: still one shard,
    // still the same run.
    const SimResult forced =
        run(stacks[i].factory, zero_lookahead_options(), 4);
    EXPECT_EQ(forced.shards_used, 1u) << stacks[i].name;
    EXPECT_EQ(trace_digest(forced), kGolden[i].zero_lookahead)
        << stacks[i].name;
  }
}

TEST(SimGolden, InstantDigests) {
  const auto stacks = standard_protocols();
  for (std::size_t i = 0; i < stacks.size() && i < std::size(kGolden); ++i) {
    const SimResult result = run(stacks[i].factory, instant_options(), 1);
    EXPECT_EQ(trace_digest(result), kGolden[i].instant) << stacks[i].name;
  }
}

TEST(SimGolden, LossyReliableDigests) {
  const auto stacks = standard_protocols();
  for (std::size_t i = 0; i < stacks.size() && i < std::size(kGolden); ++i) {
    const SimResult result =
        run(ReliableProtocol::wrap(stacks[i].factory), lossy_options(), 1);
    EXPECT_TRUE(result.completed) << stacks[i].name << ": " << result.error;
    EXPECT_GT(result.trace.drops(), 0u) << stacks[i].name;
    EXPECT_GT(result.trace.retransmissions(), 0u) << stacks[i].name;
    EXPECT_EQ(trace_digest(result), kGolden[i].lossy_reliable)
        << stacks[i].name;
  }
}

}  // namespace
}  // namespace msgorder
