// The generic violation-witness search (the specification oracle).
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "src/checker/limit_sets.hpp"
#include "src/checker/violation.hpp"
#include "src/poset/run_generator.hpp"
#include "src/spec/library.hpp"
#include "src/spec/parser.hpp"
#include "tests/random_feed.hpp"

namespace msgorder {
namespace {

constexpr UserEventKind S = UserEventKind::kSend;
constexpr UserEventKind R = UserEventKind::kDeliver;

UserRun overtaking_run() {
  std::vector<Message> ms = {{0, 0, 1, 0}, {1, 0, 1, 0}};
  auto run = UserRun::from_schedules(
      ms, {{{0, S}, {1, S}}, {{1, R}, {0, R}}});
  EXPECT_TRUE(run.has_value());
  return *run;
}

TEST(Violation, FindsCausalWitness) {
  const auto witness = find_violation(overtaking_run(), causal_ordering());
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ((*witness)[0], 0u);  // x := message 0
  EXPECT_EQ((*witness)[1], 1u);  // y := message 1
}

TEST(Violation, NoWitnessInCleanRun) {
  std::vector<Message> ms = {{0, 0, 1, 0}, {1, 0, 1, 0}};
  const auto run = UserRun::from_schedules(
      ms, {{{0, S}, {1, S}}, {{0, R}, {1, R}}});
  ASSERT_TRUE(run.has_value());
  EXPECT_FALSE(find_violation(*run, causal_ordering()).has_value());
  EXPECT_TRUE(satisfies(*run, causal_ordering()));
}

TEST(Violation, RespectsProcessConstraints) {
  // Cross-channel overtaking violates plain causal but not FIFO.
  std::vector<Message> ms = {{0, 0, 1, 0}, {1, 0, 2, 0}};
  // m0 to P1, m1 to P2; P1 then relays nothing — build causality so that
  // m1.r |> m0.r via a third message? Simpler: same-source sends are
  // causally ordered; deliveries at different processes are concurrent,
  // so causal ordering is satisfied too.  Use the direct channel case
  // to check the positive side instead.
  const auto run = UserRun::from_schedules(
      ms, {{{0, S}, {1, S}}, {{0, R}}, {{1, R}}});
  ASSERT_TRUE(run.has_value());
  EXPECT_TRUE(satisfies(*run, fifo()));
  // And the overtaking run violates FIFO since both constraints bind.
  EXPECT_FALSE(satisfies(overtaking_run(), fifo()));
}

TEST(Violation, RespectsColorConstraints) {
  std::vector<Message> plain = {{0, 0, 1, 0}, {1, 0, 1, 0}};
  const auto run = UserRun::from_schedules(
      plain, {{{0, S}, {1, S}}, {{1, R}, {0, R}}});
  ASSERT_TRUE(run.has_value());
  // Same shape as a forward-flush violation, but nothing is red.
  EXPECT_TRUE(satisfies(*run, local_forward_flush()));
  EXPECT_FALSE(satisfies(*run, k_weaker_causal(0)));
}

TEST(Violation, WitnessSatisfiesEveryConjunct) {
  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    RandomRunOptions opts;
    opts.n_processes = 3;
    opts.n_messages = 6;
    opts.send_bias = 0.8;
    const UserRun run = random_scheduled_run(opts, rng);
    for (const NamedSpec& spec : spec_zoo()) {
      const auto witness = find_violation(run, spec.predicate);
      if (!witness.has_value()) continue;
      for (const Conjunct& c : spec.predicate.conjuncts) {
        EXPECT_TRUE(run.before((*witness)[c.lhs], c.p, (*witness)[c.rhs],
                               c.q))
            << spec.name;
      }
      for (const ColorConstraint& cc : spec.predicate.color_constraints) {
        EXPECT_EQ(run.color_of((*witness)[cc.var]), cc.color);
      }
      for (const ProcessEquality& pe : spec.predicate.process_constraints) {
        EXPECT_EQ(run.process_of({(*witness)[pe.var_a], pe.kind_a}),
                  run.process_of({(*witness)[pe.var_b], pe.kind_b}));
      }
    }
  }
}

TEST(Violation, AgreesWithDirectCausalChecker) {
  Rng rng(73);
  for (int trial = 0; trial < 300; ++trial) {
    RandomRunOptions opts;
    opts.n_processes = 2 + rng.below(3);
    opts.n_messages = rng.below(8);
    const UserRun run = random_scheduled_run(opts, rng);
    EXPECT_EQ(satisfies(run, causal_ordering()), in_causal(run));
  }
}

TEST(Violation, CrownSearchOnLargerArity) {
  // A 3-crown violation needs a 3-variable assignment.
  std::vector<Message> ms = {{0, 0, 1, 0}, {1, 1, 2, 0}, {2, 2, 0, 0}};
  const auto run = UserRun::from_schedules(
      ms, {{{0, S}, {2, R}}, {{1, S}, {0, R}}, {{2, S}, {1, R}}});
  ASSERT_TRUE(run.has_value());
  EXPECT_TRUE(satisfies(*run, sync_crown(2)));
  const auto witness = find_violation(*run, sync_crown(3));
  ASSERT_TRUE(witness.has_value());
}

TEST(Violation, ArityAboveSixtyFourSearchesWithoutVariableMasks) {
  // The engine's nogood plan keys on 64-bit variable masks; a longer
  // predicate must search correctly without them.  66 variables chained
  // by their sends over 70 in-order messages on one channel: the first
  // witness is messages 0..65.
  constexpr std::size_t kArity = 66;
  constexpr std::size_t kMessages = 70;
  std::vector<Message> ms;
  std::vector<std::vector<ScheduleStep>> schedules(2);
  for (MessageId m = 0; m < kMessages; ++m) {
    ms.push_back({m, 0, 1, 0});
    schedules[0].push_back({m, S});
    schedules[1].push_back({m, R});
  }
  const auto run = UserRun::from_schedules(ms, schedules);
  ASSERT_TRUE(run.has_value());
  ForbiddenPredicate chain;
  chain.arity = kArity;
  for (std::size_t v = 0; v + 1 < kArity; ++v) {
    chain.conjuncts.push_back({v, S, v + 1, S});
  }
  chain.conjuncts.push_back({0, R, kArity - 1, R});
  const auto witness = find_violation(*run, chain);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(*witness, find_violation_naive(*run, chain));
  for (std::size_t v = 0; v < kArity; ++v) EXPECT_EQ((*witness)[v], v);
}

TEST(Violation, ZeroArityNeverViolates) {
  const ForbiddenPredicate empty;
  EXPECT_TRUE(satisfies(overtaking_run(), empty));
}

TEST(Violation, EmptyRunSatisfiesEverything) {
  const auto run = UserRun::from_edges({}, {});
  ASSERT_TRUE(run.has_value());
  for (const NamedSpec& spec : spec_zoo()) {
    EXPECT_TRUE(satisfies(*run, spec.predicate));
  }
}

TEST(Violation, CompositeRequiresAllComponents) {
  const UserRun run = overtaking_run();
  CompositeSpec both;
  both.predicates = {causal_ordering(), async_zoo()[0]};
  EXPECT_FALSE(satisfies(run, both));
  CompositeSpec fine;
  fine.predicates = {async_zoo()[0], async_zoo()[1]};
  EXPECT_TRUE(satisfies(run, fine));
}

TEST(Violation, WitnessToString) {
  const auto witness = find_violation(overtaking_run(), causal_ordering());
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness_to_string(causal_ordering(), *witness),
            "x:=m0, y:=m1");
}

// --- counting specs: the offline width oracle ---

TEST(Counting, OfflineWidthMatchesBruteForceAntichain) {
  Rng rng(307);
  for (int trial = 0; trial < 40; ++trial) {
    const Feed feed = random_feed(rng, 3, 7, {0, 1});
    const UserRun run = feed.to_run();
    for (const std::optional<int> color :
         {std::optional<int>{}, std::optional<int>{1}}) {
      // Brute force: the largest subset of matching messages that is
      // pairwise overlap-compatible (no x.r |> y.s either way).
      std::vector<MessageId> pool;
      for (MessageId m = 0; m < run.message_count(); ++m) {
        if (!color.has_value() || run.color_of(m) == *color) {
          pool.push_back(m);
        }
      }
      std::size_t best = 0;
      for (std::size_t mask = 0; mask < (1u << pool.size()); ++mask) {
        bool ok = true;
        for (std::size_t i = 0; i < pool.size() && ok; ++i) {
          for (std::size_t j = 0; j < pool.size() && ok; ++j) {
            if (i == j || !((mask >> i) & 1u) || !((mask >> j) & 1u)) {
              continue;
            }
            if (run.before(pool[i], R, pool[j], S)) ok = false;
          }
        }
        if (ok) {
          best = std::max(
              best, static_cast<std::size_t>(std::popcount(mask)));
        }
      }
      EXPECT_EQ(max_concurrency_width(run, color), best);
    }
  }
}

TEST(Counting, CompositeSatisfiesChecksWidth) {
  // Two overlapping sends on different channels: width 2.
  const std::vector<Message> ms = {{0, 0, 1, 0}, {1, 2, 1, 0}};
  const auto run = UserRun::from_schedules(
      ms, {{{0, S}}, {{0, R}, {1, R}}, {{1, S}}});
  ASSERT_TRUE(run.has_value());
  CompositeSpec tight;
  tight.counting.push_back(CountingPredicate{std::nullopt, 1});
  CompositeSpec loose;
  loose.counting.push_back(CountingPredicate{std::nullopt, 2});
  EXPECT_EQ(max_concurrency_width(*run, std::nullopt), 2u);
  EXPECT_FALSE(satisfies(*run, tight));
  EXPECT_TRUE(satisfies(*run, loose));
}

TEST(Counting, ParsedDisjunctionAndCountingSpecsMatchSemantics) {
  Rng rng(5150);
  const std::string text =
      "x.s |> y.s where process(x.s) = process(y.s), color(x) = 1, "
      "color(y) = 2"
      " | x.s |> y.s where process(x.s) = process(y.s), color(x) = 2, "
      "color(y) = 1;\n"
      "concurrent(color = 1) <= 2";
  const ParseSpecResult parsed = parse_spec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.spec->predicates.size(), 2u);
  ASSERT_EQ(parsed.spec->counting.size(), 1u);
  int rejected = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const Feed feed = random_feed(rng, 3, 6, {0, 1, 2}, 0.5);
    const UserRun run = feed.to_run();
    // satisfies(composite) == no arm fires and the bound holds.
    bool expected = true;
    for (const ForbiddenPredicate& arm : parsed.spec->predicates) {
      expected = expected && !find_violation_naive(run, arm).has_value();
    }
    expected =
        expected && max_concurrency_width(run, 1) <=
                        parsed.spec->counting[0].limit;
    EXPECT_EQ(satisfies(run, *parsed.spec), expected) << run.to_string();
    if (!expected) ++rejected;
  }
  EXPECT_GT(rejected, 10);
}

}  // namespace
}  // namespace msgorder
