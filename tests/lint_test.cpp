// Golden tests for the spec static analyzer: one seeded-bad fixture per
// rule ID (tests/lint_fixtures/), a clean pass over the built-in spec
// library and the examples in specs/, and the msgorder.lint/1 artifact.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/spec/library.hpp"
#include "src/spec/lint.hpp"

namespace msgorder {
namespace {

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

LintResult lint_fixture(const std::string& name) {
  return lint_file_text(
      read_raw(std::string(LINT_FIXTURE_DIR) + "/" + name));
}

TEST(LintFixtures, UnsatisfiableCrossing) {
  const LintResult r = lint_fixture("bad_unsatisfiable.spec");
  EXPECT_TRUE(r.has_rule("L002"));
  EXPECT_EQ(r.count(LintSeverity::kWarning), 1u);
  EXPECT_EQ(r.spec_class, ProtocolClass::kTagless);
  EXPECT_FALSE(r.clean());
}

TEST(LintFixtures, RedundantConjunct) {
  const LintResult r = lint_fixture("bad_redundant.spec");
  EXPECT_TRUE(r.has_rule("L007"));
  EXPECT_FALSE(r.has_rule("L011"));  // the back edge keeps it cyclic
  EXPECT_EQ(r.spec_class, ProtocolClass::kTagged);
}

TEST(LintFixtures, DeadVariable) {
  const LintResult r = lint_fixture("bad_dead_variable.spec");
  EXPECT_TRUE(r.has_rule("L005"));
  EXPECT_TRUE(r.has_rule("L004"));  // the tautological conjunct killed z
  EXPECT_EQ(r.spec_class, ProtocolClass::kTagged);
}

TEST(LintFixtures, ContradictoryWhere) {
  const LintResult r = lint_fixture("bad_contradictory_where.spec");
  EXPECT_TRUE(r.has_rule("L008"));
  EXPECT_GE(r.count(LintSeverity::kError), 1u);
}

TEST(LintFixtures, DuplicatePredicate) {
  const LintResult r = lint_fixture("bad_duplicate_predicate.spec");
  EXPECT_TRUE(r.has_rule("L010"));
}

TEST(LintFixtures, TautologicalPredicate) {
  const LintResult r = lint_fixture("bad_tautological.spec");
  EXPECT_TRUE(r.has_rule("L003"));
  EXPECT_TRUE(r.has_rule("L004"));
  EXPECT_GE(r.count(LintSeverity::kError), 1u);
}

TEST(LintFixtures, DuplicateConjunct) {
  const LintResult r = lint_fixture("bad_duplicate_conjunct.spec");
  EXPECT_TRUE(r.has_rule("L006"));
  EXPECT_FALSE(r.has_rule("L007"));  // duplicates are not "implied"
}

TEST(LintFixtures, RedundantWhere) {
  const LintResult r = lint_fixture("bad_redundant_where.spec");
  EXPECT_TRUE(r.has_rule("L009"));
  EXPECT_FALSE(r.has_rule("L008"));
}

TEST(LintFixtures, OverStrengthComposite) {
  const LintResult r = lint_fixture("bad_overstrong.spec");
  EXPECT_TRUE(r.has_rule("L013"));
  EXPECT_EQ(r.count(LintSeverity::kHint), 1u);
  EXPECT_EQ(r.spec_class, ProtocolClass::kGeneral);
}

TEST(LintFixtures, ClassMismatch) {
  const LintResult r = lint_fixture("bad_class_mismatch.spec");
  EXPECT_TRUE(r.has_rule("L014"));
  EXPECT_GE(r.count(LintSeverity::kError), 1u);
}

TEST(LintFixtures, NotImplementable) {
  const LintResult r = lint_fixture("bad_not_implementable.spec");
  EXPECT_TRUE(r.has_rule("L011"));
  EXPECT_EQ(r.spec_class, ProtocolClass::kNotImplementable);
}

TEST(LintFixtures, ParseError) {
  const LintResult r = lint_fixture("bad_parse_error.spec");
  EXPECT_FALSE(r.parsed);
  EXPECT_TRUE(r.has_rule("L001"));
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_TRUE(r.diagnostics[0].span.has_value());
}

TEST(LintFixtures, UnknownExpectClass) {
  const LintResult r = lint_fixture("bad_expect_unknown_class.spec");
  EXPECT_TRUE(r.has_rule("L017"));
  EXPECT_GE(r.count(LintSeverity::kError), 1u);
  // The bad pragma carries no intent, so no demotion and no L014.
  EXPECT_FALSE(r.has_rule("L014"));
  ASSERT_FALSE(r.diagnostics.empty());
  const LintDiagnostic& d = r.diagnostics.front();
  EXPECT_EQ(d.rule->id, "L017");
  ASSERT_TRUE(d.span.has_value());
  EXPECT_EQ(d.span->line, 3u);  // the pragma line, not the spec line
  EXPECT_NE(d.message.find("'casual'"), std::string::npos);
  EXPECT_EQ(d.fixit, "# expect: tagged");
}

TEST(LintFixtures, CleanFixturesPass) {
  for (const char* name : {"clean_causal.spec", "clean_fifo.spec"}) {
    const LintResult r = lint_fixture(name);
    EXPECT_TRUE(r.clean()) << name;
    EXPECT_EQ(r.spec_class, ProtocolClass::kTagged) << name;
  }
}

TEST(LintLibrary, EveryZooEntryIsCleanUnderItsDeclaredIntent) {
  for (const NamedSpec& entry : spec_zoo()) {
    LintOptions options;
    options.expected = entry.expected;
    const LintResult r = lint_predicate(entry.predicate, nullptr, options);
    EXPECT_TRUE(r.clean()) << entry.name;
    EXPECT_FALSE(r.has_rule("L014")) << entry.name;
    EXPECT_EQ(r.spec_class, entry.expected) << entry.name;
  }
}

TEST(LintLibrary, CompositeBuildersAreClean) {
  LintOptions tagged;
  tagged.expected = ProtocolClass::kTagged;
  EXPECT_TRUE(lint_spec(two_way_flush(), nullptr, tagged).clean());
  EXPECT_TRUE(lint_spec(global_two_way_flush(), nullptr, tagged).clean());
  LintOptions general;
  general.expected = ProtocolClass::kGeneral;
  EXPECT_TRUE(
      lint_spec(logically_synchronous(5), nullptr, general).clean());
}

TEST(LintLibrary, ExampleSpecFilesAreClean) {
  std::size_t n_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SPEC_DIR)) {
    if (entry.path().extension() != ".spec") continue;
    ++n_files;
    const LintResult r = lint_file_text(read_raw(entry.path().string()));
    EXPECT_TRUE(r.parsed) << entry.path();
    EXPECT_TRUE(r.clean()) << entry.path();
  }
  EXPECT_GE(n_files, 7u);
}

TEST(LintFixtures, DeadDisjunct) {
  const LintResult r = lint_fixture("bad_dead_disjunct.spec");
  EXPECT_TRUE(r.has_rule("L015"));
  EXPECT_TRUE(r.has_rule("L002"));  // the dead arm is an order-0 cycle
  EXPECT_EQ(r.spec_class, ProtocolClass::kTagged);
  EXPECT_FALSE(r.clean());
}

TEST(LintFixtures, DegenerateCounting) {
  const LintResult r = lint_fixture("bad_counting_zero.spec");
  EXPECT_TRUE(r.has_rule("L016"));
  EXPECT_EQ(r.spec_class, ProtocolClass::kGeneral);
  EXPECT_FALSE(r.has_rule("L014"));  // the declared 'general' matches
  EXPECT_FALSE(r.clean());
}

TEST(LintCounting, BoundRaisesTheClassWithAnExplanation) {
  const LintResult r =
      lint_text("(x.s |> y.s) & (y.r |> x.r); concurrent <= 4");
  EXPECT_EQ(r.spec_class, ProtocolClass::kGeneral);
  EXPECT_TRUE(r.has_rule("L012"));
  EXPECT_TRUE(r.clean());
}

TEST(LintDisjunction, LiveArmsAreNotFlagged) {
  const LintResult r = lint_text(
      "(x.s |> y.s) & (y.r |> x.r) where color(y) = 1"
      " | (x.s |> y.s) & (y.r |> x.r) where color(x) = 1");
  EXPECT_FALSE(r.has_rule("L015"));
  EXPECT_TRUE(r.clean());
}

TEST(LintDisjunction, ArmDemandingTwoColorsOfOneMessageIsDead) {
  // The second arm is a live causal pattern except that y must be both
  // color 1 and color 2, so no run ever matches it.
  const LintResult r = lint_text(
      "(x.s |> y.s) & (y.r |> x.r)"
      " | (x.s |> y.s) & (y.r |> x.r) where color(y) = 1, color(y) = 2");
  EXPECT_TRUE(r.has_rule("L015"));
}

TEST(LintExplain, ExplanationNamesWitnessCycleAndBetaVertices) {
  const LintResult r = lint_predicate(causal_ordering());
  ASSERT_TRUE(r.has_rule("L012"));
  const LintDiagnostic* explanation = nullptr;
  for (const LintDiagnostic& d : r.diagnostics) {
    if (d.rule->id == "L012") explanation = &d;
  }
  ASSERT_NE(explanation, nullptr);
  bool saw_witness = false, saw_beta = false, saw_lemma4 = false;
  for (const std::string& note : explanation->notes) {
    saw_witness |= note.find("witness cycle:") != std::string::npos;
    saw_beta |= note.find("beta vertices: x") != std::string::npos;
    saw_lemma4 |= note.find("Lemma 4") != std::string::npos;
  }
  EXPECT_TRUE(saw_witness);
  EXPECT_TRUE(saw_beta);
  EXPECT_TRUE(saw_lemma4);
}

TEST(LintExplain, NoExplainSuppressesL012) {
  LintOptions options;
  options.explain = false;
  EXPECT_FALSE(lint_predicate(causal_ordering(), nullptr, options)
                   .has_rule("L012"));
}

TEST(LintExplain, OverStrengthHintNamesTheClassDrop) {
  CompositeSpec spec;
  spec.predicates = {causal_ordering(), sync_crown(2)};
  const LintResult r = lint_spec(spec);
  ASSERT_TRUE(r.has_rule("L013"));
  for (const LintDiagnostic& d : r.diagnostics) {
    if (d.rule->id != "L013") continue;
    EXPECT_EQ(d.predicate_index, std::optional<std::size_t>(1));
    EXPECT_NE(d.message.find("'general' to 'tagged'"), std::string::npos);
  }
}

TEST(LintIntent, MismatchedIntentIsAnErrorNotADemotion) {
  LintOptions options;
  options.expected = ProtocolClass::kTagged;
  const LintResult r =
      lint_text("(x.s |> y.s) & (y.s |> x.s)", options);  // really tagless
  EXPECT_TRUE(r.has_rule("L014"));
  // The L002 stays a warning: the intent did not match.
  EXPECT_GE(r.count(LintSeverity::kWarning), 1u);
}

TEST(LintIntent, MatchingIntentDemotesVerdictDiagnostics) {
  LintOptions options;
  options.expected = ProtocolClass::kTagless;
  const LintResult r = lint_text("(x.s |> y.s) & (y.s |> x.s)", options);
  EXPECT_TRUE(r.has_rule("L002"));
  EXPECT_TRUE(r.clean());  // demoted to a note
  EXPECT_FALSE(r.has_rule("L014"));
}

TEST(LintRender, CaretPointsAtTheOffendingSpan) {
  const std::string text = "(x.s |> y.s) & (y.s |> x.s)";
  const std::string rendered =
      render_lint_text(lint_text(text), text, "inline");
  EXPECT_NE(rendered.find("inline:1:1: warning [L002"), std::string::npos);
  EXPECT_NE(rendered.find("^~"), std::string::npos);
  EXPECT_NE(rendered.find("class: tagless"), std::string::npos);
}

TEST(LintRules, CatalogIsStableAndComplete) {
  ASSERT_EQ(lint_rules().size(), 17u);
  for (std::size_t i = 0; i < lint_rules().size(); ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "L%03zu", i + 1);
    EXPECT_EQ(lint_rules()[i].id, id);
    EXPECT_EQ(find_lint_rule(id), &lint_rules()[i]);
  }
  EXPECT_EQ(find_lint_rule("L999"), nullptr);
}

TEST(LintArtifact, ValidatesAndAggregates) {
  std::vector<LintInput> inputs;
  inputs.push_back({"bad", "", lint_text("(x.s |> x.r)")});
  inputs.push_back({"good", "", lint_text("(x.s |> y.s) & (y.r |> x.r)")});
  const std::string artifact = lint_artifact_json(inputs);
  std::string error;
  const auto doc = json_parse(artifact, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_at("schema").value_or(""), "msgorder.lint/1");
  EXPECT_FALSE(doc->bool_at("clean").value_or(true));
  const JsonValue* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->number_at("inputs").value_or(0), 2.0);
  EXPECT_GE(totals->number_at("error").value_or(0), 1.0);
  const JsonValue* by_rule = totals->find("by_rule");
  ASSERT_NE(by_rule, nullptr);
  EXPECT_GE(by_rule->number_at("L003").value_or(0), 1.0);
  const JsonValue* lint_inputs = doc->find("inputs");
  ASSERT_NE(lint_inputs, nullptr);
  ASSERT_EQ(lint_inputs->as_array().size(), 2u);
  EXPECT_EQ(
      lint_inputs->as_array()[1].string_at("class").value_or(""),
      "tagged");
  EXPECT_TRUE(lint_inputs->as_array()[1].bool_at("clean").value_or(false));
}

TEST(LintSpans, DiagnosticsCarryFilePositions) {
  // The second line holds the bad constraint; the span must say so.
  const std::string text =
      "(x.s |> y.s) & (y.r |> x.r)\n  where color(y)=1, color(y)=2";
  const LintResult r = lint_text(text);
  ASSERT_TRUE(r.has_rule("L008"));
  for (const LintDiagnostic& d : r.diagnostics) {
    if (d.rule->id != "L008") continue;
    ASSERT_TRUE(d.span.has_value());
    EXPECT_EQ(d.span->line, 2u);
    EXPECT_EQ(text.substr(d.span->offset, d.span->length), "color(y)=2");
  }
}

}  // namespace
}  // namespace msgorder
