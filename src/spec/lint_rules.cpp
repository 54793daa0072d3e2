#include "src/spec/lint_rules.hpp"

namespace msgorder {

std::string to_string(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kNote:
      return "note";
    case LintSeverity::kHint:
      return "hint";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "?";
}

namespace {

constexpr LintSeverity kNote = LintSeverity::kNote;
constexpr LintSeverity kHint = LintSeverity::kHint;
constexpr LintSeverity kWarning = LintSeverity::kWarning;
constexpr LintSeverity kError = LintSeverity::kError;

const std::vector<LintRule>& catalog() {
  static const std::vector<LintRule> rules = {
      {"L001", "parse-error", kError,
       "the spec text does not parse; the span points at the offending "
       "lexeme"},
      {"L002", "unsatisfiable-predicate", kWarning,
       "the forbidden pattern can never occur (it forces an event to "
       "precede itself), so the spec is all of X_async and forbids "
       "nothing"},
      {"L003", "tautological-predicate", kError,
       "every conjunct is always true, so the spec rejects every run "
       "that contains a message"},
      {"L004", "tautological-conjunct", kWarning,
       "a conjunct of the form x.s |> x.r holds in every complete run "
       "and is dropped by normalization"},
      {"L005", "dead-variable", kWarning,
       "a quantified variable survives in no conjunct after "
       "normalization; it only widens the match arity"},
      {"L006", "duplicate-conjunct", kWarning,
       "the same conjunct appears more than once"},
      {"L007", "redundant-conjunct", kWarning,
       "the conjunct is implied by the transitive closure of the other "
       "conjuncts (with the implicit x.s |> x.r edges), so dropping it "
       "leaves an equivalent predicate"},
      {"L008", "contradictory-where", kError,
       "the where clause can never be satisfied (e.g. one variable "
       "constrained to two different colors), so the spec forbids "
       "nothing"},
      {"L009", "redundant-where", kWarning,
       "a where constraint is trivially true, duplicated, or implied by "
       "the transitive closure of the preceding equalities"},
      {"L010", "duplicate-predicate", kWarning,
       "two predicates of the composite spec are identical up to "
       "variable renaming; the intersection is unchanged by dropping "
       "one"},
      {"L011", "not-implementable", kError,
       "the predicate graph is acyclic, so by Theorem 2 no protocol can "
       "implement the specification"},
      {"L012", "class-explanation", kNote,
       "names the witness cycle, its beta vertices, and the Lemma 4 "
       "canonical form behind the protocol-class verdict"},
      {"L013", "over-strength", kHint,
       "dropping the named forbidden predicate(s) from the composite "
       "lowers the required protocol class"},
      {"L014", "class-mismatch", kError,
       "the computed protocol class differs from the declared "
       "'# expect:' intent"},
      {"L015", "dead-disjunct", kWarning,
       "an arm of a '|' disjunction can never fire (its pattern is "
       "unsatisfiable, forces an event to precede itself, or demands two "
       "colors of one message), so the disjunction is unchanged by "
       "dropping it"},
      {"L016", "degenerate-counting", kWarning,
       "a 'concurrent <= 0' bound rejects every run that sends a "
       "matching message; the bound is almost certainly off by one"},
      {"L017", "unknown-expect-class", kError,
       "the '# expect:' intent pragma names an unknown protocol class, "
       "so the declared intent cannot be checked; valid classes are "
       "tagless, tagged, general, and not-implementable"},
  };
  return rules;
}

const LintRule& by_id(std::string_view id) {
  const LintRule* rule = find_lint_rule(id);
  // The catalog is compile-time data; a miss is a programming error.
  return *rule;
}

}  // namespace

const std::vector<LintRule>& lint_rules() { return catalog(); }

const LintRule* find_lint_rule(std::string_view id) {
  for (const LintRule& rule : catalog()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

const LintRule& rule_parse_error() { return by_id("L001"); }
const LintRule& rule_unsatisfiable() { return by_id("L002"); }
const LintRule& rule_tautological() { return by_id("L003"); }
const LintRule& rule_tautological_conjunct() { return by_id("L004"); }
const LintRule& rule_dead_variable() { return by_id("L005"); }
const LintRule& rule_duplicate_conjunct() { return by_id("L006"); }
const LintRule& rule_redundant_conjunct() { return by_id("L007"); }
const LintRule& rule_contradictory_where() { return by_id("L008"); }
const LintRule& rule_redundant_where() { return by_id("L009"); }
const LintRule& rule_duplicate_predicate() { return by_id("L010"); }
const LintRule& rule_not_implementable() { return by_id("L011"); }
const LintRule& rule_class_explanation() { return by_id("L012"); }
const LintRule& rule_over_strength() { return by_id("L013"); }
const LintRule& rule_class_mismatch() { return by_id("L014"); }
const LintRule& rule_dead_disjunct() { return by_id("L015"); }
const LintRule& rule_degenerate_counting() { return by_id("L016"); }
const LintRule& rule_unknown_expect_class() { return by_id("L017"); }

}  // namespace msgorder
