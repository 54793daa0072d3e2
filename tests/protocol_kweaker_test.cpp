#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/checker/limit_sets.hpp"
#include "src/checker/violation.hpp"
#include "src/protocols/causal_rst.hpp"
#include "src/protocols/kweaker.hpp"
#include "src/spec/library.hpp"
#include "tests/kweaker_chain_reference.hpp"
#include "tests/sim_harness.hpp"

namespace msgorder {
namespace {

/// Every process's log as (message, kind, exact time), in log order.
using EventLog =
    std::vector<std::vector<std::tuple<MessageId, EventKind, SimTime>>>;

EventLog event_log(const SimResult& sim) {
  EventLog log(sim.trace.logs().size());
  for (std::size_t p = 0; p < log.size(); ++p) {
    for (const TimedEvent& te : sim.trace.logs()[p]) {
      log[p].emplace_back(te.event.msg, te.event.kind, te.time);
    }
  }
  return log;
}

/// Forwards to a protocol and keeps each user packet's payload as it
/// arrives, in the receiving process's own map.
class TagRecorder final : public Protocol {
 public:
  TagRecorder(std::unique_ptr<Protocol> inner,
              std::map<MessageId, std::string>& tags)
      : inner_(std::move(inner)), tags_(tags) {}

  void on_invoke(const Message& m) override { inner_->on_invoke(m); }
  void on_packet(const Packet& packet) override {
    if (!packet.is_control) tags_.emplace(packet.user_msg, packet.payload);
    inner_->on_packet(packet);
  }
  std::string name() const override { return inner_->name(); }
  bool quiescent() const override { return inner_->quiescent(); }

 private:
  std::unique_ptr<Protocol> inner_;
  std::map<MessageId, std::string>& tags_;
};

/// Every tag a run carried, by message.
std::map<MessageId, std::string> recorded_tags(const Workload& w,
                                               const ProtocolFactory& inner,
                                               std::size_t n,
                                               const SimOptions& sopts) {
  std::vector<std::map<MessageId, std::string>> by_process(n);
  const SimResult sim = simulate(
      w,
      [&](Host& host) {
        return std::make_unique<TagRecorder>(inner(host),
                                             by_process[host.self()]);
      },
      n, sopts);
  EXPECT_TRUE(sim.completed) << sim.error;
  std::map<MessageId, std::string> tags;
  for (auto& received : by_process) tags.merge(received);
  return tags;
}

/// The single-channel burst: 30 messages from p0 to p1, 0.01 apart.
Workload burst_workload() {
  std::vector<std::tuple<SimTime, ProcessId, ProcessId, int>> entries;
  for (int i = 0; i < 30; ++i) entries.push_back({0.01 * i, 0, 1, 0});
  return scripted_workload(entries);
}

TEST(KWeaker, SatisfiesItsSpecAcrossSeedsAndK) {
  for (std::size_t k = 0; k <= 3; ++k) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto result =
          run_protocol(KWeakerCausalProtocol::factory(k), 4, 120, seed);
      EXPECT_TRUE(satisfies(result.run, k_weaker_causal(k)))
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(KWeaker, KZeroIsCausalOrdering) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto result =
        run_protocol(KWeakerCausalProtocol::factory(0), 4, 120, seed);
    EXPECT_TRUE(in_causal(result.run)) << "seed " << seed;
  }
}

TEST(KWeaker, LargerKPermitsMoreReordering) {
  // With k >= 1 some seed must produce a non-causal (but k-weaker-valid)
  // run — that is the point of relaxing the ordering.
  bool non_causal_seen = false;
  for (std::uint64_t seed = 1; seed <= 25 && !non_causal_seen; ++seed) {
    const auto result =
        run_protocol(KWeakerCausalProtocol::factory(1), 4, 150, seed);
    non_causal_seen = !in_causal(result.run);
  }
  EXPECT_TRUE(non_causal_seen);
}

TEST(KWeaker, DeliveryDelayDecreasesWithK) {
  // Relaxation pays: buffering time decreases monotonically-ish in k.
  double previous = 1e18;
  for (std::size_t k : {0u, 2u, 6u}) {
    double total = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto result =
          run_protocol(KWeakerCausalProtocol::factory(k), 4, 200, seed);
      total += result.sim.trace.mean_delivery_delay();
    }
    EXPECT_LE(total, previous * 1.05) << "k=" << k;
    previous = total;
  }
}

TEST(KWeaker, NoControlMessages) {
  const auto result =
      run_protocol(KWeakerCausalProtocol::factory(2), 4, 100, 3);
  EXPECT_EQ(result.sim.trace.control_packets(), 0u);
  EXPECT_GT(result.sim.trace.mean_tag_bytes(), 0.0);
}

TEST(KWeaker, SingleChannelChainScenario) {
  // A burst on one channel: with slack k, a message may overtake at most
  // k causal-chain predecessors.
  const Workload w = burst_workload();
  SimOptions sopts;
  sopts.network.jitter_mean = 10.0;
  for (std::size_t k : {0u, 1u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      sopts.seed = seed;
      const SimResult sim =
          simulate(w, KWeakerCausalProtocol::factory(k), 2, sopts);
      ASSERT_TRUE(sim.completed) << sim.error;
      const auto run = sim.trace.to_user_run();
      ASSERT_TRUE(run.has_value());
      EXPECT_TRUE(satisfies(*run, k_weaker_causal(k)))
          << "k=" << k << " seed=" << seed;
      // On a single channel, chain depth == send distance: message m may
      // not be delivered after m+k+1.
      for (MessageId m = 0; m + k + 1 < 30; ++m) {
        EXPECT_FALSE(run->before(m + k + 1, UserEventKind::kDeliver, m,
                                 UserEventKind::kDeliver));
      }
    }
  }
}

// The per-channel prefix matrix is an exact form of the chain map, not an
// approximation: on every run it must deliver the same messages at the
// same instants as the protocol that tags each send with its whole
// causal past.  The reference at k+1 is the control that shows the
// comparison can fail.
TEST(KWeaker, MatchesChainMapReferenceEventForEvent) {
  std::size_t runs = 0;
  std::size_t control_differs = 0;
  const auto compare = [&](const Workload& w, std::size_t n, std::size_t k,
                           const SimOptions& sopts) {
    const SimResult got =
        simulate(w, KWeakerCausalProtocol::factory(k), n, sopts);
    const SimResult want =
        simulate(w, KWeakerChainReference::factory(k), n, sopts);
    ASSERT_TRUE(got.completed) << got.error;
    ASSERT_TRUE(want.completed) << want.error;
    EXPECT_EQ(event_log(got), event_log(want))
        << "n=" << n << " k=" << k << " seed=" << sopts.seed
        << " jitter=" << sopts.network.jitter_mean;
    const SimResult control =
        simulate(w, KWeakerChainReference::factory(k + 1), n, sopts);
    if (event_log(control) != event_log(got)) ++control_differs;
    ++runs;
  };
  for (std::size_t k = 0; k <= 3; ++k) {
    for (const std::size_t n : {2u, 3u, 4u, 6u}) {
      for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        for (const double jitter : {1.0, 5.0}) {
          Rng rng(seed * 131 + n);
          WorkloadOptions wopts;
          wopts.n_processes = n;
          wopts.n_messages = 20 * n;
          wopts.mean_gap = 0.3;
          SimOptions sopts;
          sopts.seed = seed;
          sopts.network.jitter_mean = jitter;
          compare(random_workload(wopts, rng), n, k, sopts);
        }
      }
    }
    SimOptions sopts;
    sopts.network.jitter_mean = 10.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      sopts.seed = seed;
      compare(burst_workload(), 2, k, sopts);
    }
  }
  EXPECT_EQ(runs, 4u * (4 * 25 * 2 + 5));
  EXPECT_GT(control_differs, 0u);
}

// Stronger than equal runs: every tag is the chain map's tag for the same
// send, folded by channel.  Its entries at depth >= k+2 are a prefix of
// each channel, so counting them is exact; the rest stay young entries.
TEST(KWeaker, TagIsTheChainMapFoldedByChannel) {
  using K = KWeakerCausalProtocol;
  using Ref = KWeakerChainReference;
  for (std::size_t k = 0; k <= 3; ++k) {
    for (const std::size_t n : {3u, 5u}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        WorkloadOptions wopts;
        wopts.n_processes = n;
        wopts.n_messages = 30 * n;
        wopts.mean_gap = 0.3;
        const Workload w = random_workload(wopts, rng);
        const std::vector<Message> universe = workload_universe(w);
        SimOptions sopts;
        sopts.seed = seed;
        sopts.network.jitter_mean = 3.0;
        const auto got = recorded_tags(w, K::factory(k), n, sopts);
        const auto want = recorded_tags(w, Ref::factory(k), n, sopts);
        ASSERT_EQ(got.size(), universe.size());
        ASSERT_EQ(want.size(), universe.size());
        std::vector<std::uint32_t> seq(universe.size());
        for (const auto& [m, payload] : got) {
          seq[m] = codec::decode<K::Tag>(payload, n).seq;
        }
        for (const auto& [m, payload] : want) {
          K::Tag folded{seq[m], MatrixClock(n), {}};
          MatrixClock old_entries(n);
          for (const auto& [x, entry] :
               codec::decode<Ref::Tag>(payload, n).chains) {
            const Message& sent = universe[x];
            if (entry.depth >= k + 2) {
              std::uint32_t& count = folded.old.at(sent.src, sent.dst);
              count = std::max(count, seq[x] + 1);
              ++old_entries.at(sent.src, sent.dst);
            } else {
              folded.young.push_back(
                  K::Young{sent.src, sent.dst, seq[x], entry.depth});
            }
          }
          std::sort(folded.young.begin(), folded.young.end(),
                    K::Young::before);
          EXPECT_EQ(old_entries, folded.old) << "old entries not a prefix";
          EXPECT_TRUE(codec::decode<K::Tag>(got.at(m), n) == folded)
              << "k=" << k << " n=" << n << " seed=" << seed << " x" << m;
        }
      }
    }
  }
}

// Old chain entries fold into the n x n matrix, so a tag's size follows
// the process count, not the run's length.
TEST(KWeaker, TagBytesAreFlatInRunLength) {
  constexpr std::size_t kProcesses = 16;
  std::vector<double> mean_bytes;
  for (const std::size_t messages : {250u, 500u, 1000u, 2000u}) {
    Rng rng(7919);
    WorkloadOptions wopts;
    wopts.n_processes = kProcesses;
    wopts.n_messages = messages;
    wopts.mean_gap = 0.3;
    SimOptions sopts;
    sopts.seed = 7919;
    sopts.network.jitter_mean = 3.0;
    const SimResult sim = simulate(random_workload(wopts, rng),
                                   KWeakerCausalProtocol::factory(1),
                                   kProcesses, sopts);
    ASSERT_TRUE(sim.completed) << sim.error;
    mean_bytes.push_back(sim.trace.mean_tag_bytes());
    EXPECT_GE(mean_bytes.back(), 4.0 + 4 * kProcesses * kProcesses)
        << messages;
  }
  EXPECT_LE(mean_bytes[3], 1.05 * mean_bytes[1])
      << mean_bytes[0] << " " << mean_bytes[1] << " " << mean_bytes[2]
      << " " << mean_bytes[3];
}

}  // namespace
}  // namespace msgorder
