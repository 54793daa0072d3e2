// Parameterized property sweeps tying the layers together:
//   * per zoo spec: classifier / witness / weakening / synthesis
//     coherence, and conjunct-removal monotonicity of the oracle;
//   * per protocol x load: liveness and trace validity on hostile
//     networks.
#include <gtest/gtest.h>

#include "src/checker/limit_sets.hpp"
#include "src/checker/violation.hpp"
#include "src/poset/run_generator.hpp"
#include "src/protocols/registry.hpp"
#include "src/protocols/synthesized.hpp"
#include "src/spec/library.hpp"
#include "src/spec/weaken.hpp"
#include "src/spec/witness.hpp"
#include "tests/sim_harness.hpp"

namespace msgorder {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: every zoo specification.

class ZooSpecTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  const NamedSpec& spec() const {
    static const auto zoo = spec_zoo();
    return zoo[GetParam()];
  }
};

TEST_P(ZooSpecTest, ClassificationIsStable) {
  // classify is a pure function: same verdict twice, and the verdict of
  // the normalized predicate matches.
  const Classification a = classify(spec().predicate);
  const Classification b = classify(spec().predicate);
  EXPECT_EQ(a.protocol_class, b.protocol_class);
  EXPECT_EQ(a.min_order, b.min_order);
  if (a.normalized.triviality == NormalTriviality::kNone) {
    EXPECT_EQ(classify(a.normalized.predicate).protocol_class,
              a.protocol_class);
  }
}

TEST_P(ZooSpecTest, RemovingAConjunctStrengthensTheSpec) {
  // Dropping a conjunct makes the forbidden pattern easier to satisfy:
  // every run violating B also violates B-minus-one-conjunct.
  const ForbiddenPredicate& full = spec().predicate;
  if (full.conjuncts.size() < 2) return;
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    RandomRunOptions opts;
    opts.n_processes = 3;
    opts.n_messages = 6;
    opts.send_bias = 0.8;
    opts.red_fraction = 0.4;
    const UserRun run = random_scheduled_run(opts, rng);
    if (satisfies(run, full)) continue;
    for (std::size_t drop = 0; drop < full.conjuncts.size(); ++drop) {
      ForbiddenPredicate weaker = full;
      weaker.conjuncts.erase(weaker.conjuncts.begin() +
                             static_cast<long>(drop));
      EXPECT_FALSE(satisfies(run, weaker))
          << spec().name << " minus conjunct " << drop;
    }
  }
}

TEST_P(ZooSpecTest, WitnessMatchesClass) {
  const Classification verdict = classify(spec().predicate);
  const auto witness = witness_run(spec().predicate);
  if (verdict.protocol_class == ProtocolClass::kTagless) {
    EXPECT_FALSE(witness.has_value());
    return;
  }
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(satisfies(*witness, spec().predicate));
}

TEST_P(ZooSpecTest, WeakeningPreservesOrder) {
  const Classification verdict = classify(spec().predicate);
  if (!verdict.witness.has_value() || verdict.witness->edges.empty()) {
    return;
  }
  const PredicateGraph graph(verdict.normalized.predicate);
  const ForbiddenPredicate ring =
      cycle_predicate(graph, verdict.witness->edges);
  const WeakeningTrace trace = weaken_to_canonical(ring);
  for (const ForbiddenPredicate& step : trace.steps) {
    const Classification c = classify(step);
    ASSERT_TRUE(c.min_order.has_value());
    EXPECT_EQ(*c.min_order, *verdict.min_order) << spec().name;
  }
}

TEST_P(ZooSpecTest, SynthesisAgreesWithClassification) {
  const SynthesisResult synthesis = synthesize(spec().predicate);
  EXPECT_EQ(synthesis.classification.protocol_class, spec().expected);
  EXPECT_EQ(synthesis.factory.has_value(),
            spec().expected != ProtocolClass::kNotImplementable);
}

std::vector<std::size_t> zoo_indices() {
  std::vector<std::size_t> indices(spec_zoo().size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return indices;
}

INSTANTIATE_TEST_SUITE_P(AllZooSpecs, ZooSpecTest,
                         ::testing::ValuesIn(zoo_indices()),
                         [](const auto& info) {
                           return "spec" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Sweep 2: every registered protocol under three load regimes.

struct LoadCase {
  std::size_t protocol_index;
  double mean_gap;
};

class ProtocolLoadTest : public ::testing::TestWithParam<LoadCase> {};

TEST_P(ProtocolLoadTest, LivenessAndTraceValidity) {
  const auto protocols = standard_protocols();
  const RegisteredProtocol& rp = protocols[GetParam().protocol_index];
  const auto result =
      run_protocol(rp.factory, 4, 80, /*seed=*/77, /*red_fraction=*/0.2,
                   /*red_color=*/1, GetParam().mean_gap);
  EXPECT_TRUE(result.sim.trace.all_delivered()) << rp.name;
  const auto system = result.sim.trace.to_system_run();
  ASSERT_TRUE(system.has_value()) << rp.name;
  EXPECT_TRUE(system->quiescent());
  // Invoke order equals message id order in random workloads; every
  // protocol preserves per-message lifecycle ordering by construction
  // of the trace (validated inside from_sequences).
}

std::vector<LoadCase> load_cases() {
  std::vector<LoadCase> cases;
  const std::size_t n = standard_protocols().size();
  for (std::size_t i = 0; i < n; ++i) {
    for (double gap : {0.05, 0.5, 5.0}) {
      cases.push_back({i, gap});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllLoads, ProtocolLoadTest,
    ::testing::ValuesIn(load_cases()), [](const auto& info) {
      const auto protocols = standard_protocols();
      std::string name = protocols[info.param.protocol_index].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_gap" +
             std::to_string(static_cast<int>(info.param.mean_gap * 100));
    });

// ---------------------------------------------------------------------
// Sweep 3: run-size scaling of checker agreement.

class CheckerAgreementTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CheckerAgreementTest, OracleMatchesDirectCheckers) {
  Rng rng(42 + GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    RandomRunOptions opts;
    opts.n_processes = 4;
    opts.n_messages = GetParam();
    opts.send_bias = 0.7;
    const UserRun run = random_scheduled_run(opts, rng);
    EXPECT_EQ(satisfies(run, causal_ordering()), in_causal(run));
    if (in_sync(run)) {
      EXPECT_TRUE(satisfies(run, sync_crown(2)));
      EXPECT_TRUE(satisfies(run, sync_crown(3)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RunSizes, CheckerAgreementTest,
                         ::testing::Values(2, 4, 8, 16, 32),
                         [](const auto& info) {
                           std::string name = "m";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace msgorder
