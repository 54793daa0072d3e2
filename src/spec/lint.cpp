#include "src/spec/lint.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "src/obs/json.hpp"
#include "src/spec/graph.hpp"
#include "src/spec/weaken.hpp"

namespace msgorder {

namespace {

constexpr UserEventKind S = UserEventKind::kSend;
constexpr UserEventKind R = UserEventKind::kDeliver;
constexpr std::size_t kNoConjunct = static_cast<std::size_t>(-1);

/// Event-level node: one per (variable, kind) pair.
std::size_t event_node(std::size_t var, UserEventKind kind) {
  return 2 * var + (kind == R ? 1 : 0);
}

std::string atom_str(const ForbiddenPredicate& p, std::size_t var,
                     UserEventKind kind) {
  return p.var_name(var) + "." + kind_name(kind);
}

std::string conjunct_str(const ForbiddenPredicate& p, const Conjunct& c) {
  return atom_str(p, c.lhs, c.p) + " |> " + atom_str(p, c.rhs, c.q);
}

/// The event-level precedence graph: every conjunct x.p |> y.q is an
/// edge, and every variable contributes the implicit x.s |> x.r edge
/// (a send strictly precedes its own delivery in a complete run).
/// `skip(i)` excludes conjunct i, for implied-by-the-others queries.
struct EventGraph {
  // adjacency: node -> (to_node, conjunct index or kNoConjunct)
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj;

  template <typename SkipFn>
  EventGraph(const ForbiddenPredicate& p, SkipFn skip)
      : adj(2 * p.arity) {
    for (std::size_t i = 0; i < p.conjuncts.size(); ++i) {
      if (skip(i)) continue;
      const Conjunct& c = p.conjuncts[i];
      adj[event_node(c.lhs, c.p)].emplace_back(event_node(c.rhs, c.q), i);
    }
    for (std::size_t v = 0; v < p.arity; ++v) {
      adj[event_node(v, S)].emplace_back(event_node(v, R), kNoConjunct);
    }
  }

  /// BFS path from `from` to `to`; returns the traversed edges as
  /// (conjunct index or kNoConjunct, head node) pairs, empty if
  /// unreachable (or from == to with no edges).
  std::vector<std::pair<std::size_t, std::size_t>> path(
      std::size_t from, std::size_t to) const {
    constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
    std::vector<std::size_t> parent(adj.size(), kUnvisited);
    std::vector<std::size_t> via(adj.size(), kNoConjunct);
    std::deque<std::size_t> queue{from};
    std::vector<char> seen(adj.size(), 0);
    seen[from] = 1;
    while (!queue.empty()) {
      const std::size_t node = queue.front();
      queue.pop_front();
      for (const auto& [next, conjunct] : adj[node]) {
        if (seen[next]) continue;
        seen[next] = 1;
        parent[next] = node;
        via[next] = conjunct;
        if (next == to) {
          std::vector<std::pair<std::size_t, std::size_t>> chain;
          for (std::size_t n = to; n != from; n = parent[n]) {
            chain.emplace_back(via[n], n);
          }
          std::reverse(chain.begin(), chain.end());
          return chain;
        }
        queue.push_back(next);
      }
    }
    return {};
  }
};

/// Canonical key for duplicate-predicate detection: variables relabeled
/// by first appearance across the conjuncts, constraints sorted, then
/// rendered with default names.  Catches renamings; conjunct order is
/// preserved (a reordered duplicate is a different key — documented).
std::string canonical_key(const ForbiddenPredicate& p) {
  std::map<std::size_t, std::size_t> remap;
  const auto relabel = [&](std::size_t v) {
    return remap.try_emplace(v, remap.size()).first->second;
  };
  ForbiddenPredicate out;
  for (const Conjunct& c : p.conjuncts) {
    Conjunct r = c;
    r.lhs = relabel(c.lhs);
    r.rhs = relabel(c.rhs);
    out.conjuncts.push_back(r);
  }
  for (ProcessEquality pe : p.process_constraints) {
    if (remap.count(pe.var_a) == 0 || remap.count(pe.var_b) == 0) continue;
    pe.var_a = remap.at(pe.var_a);
    pe.var_b = remap.at(pe.var_b);
    // Order the equality's two atoms canonically (it is symmetric).
    const auto key_a = std::make_pair(pe.var_a, pe.kind_a == R);
    const auto key_b = std::make_pair(pe.var_b, pe.kind_b == R);
    if (key_b < key_a) {
      std::swap(pe.var_a, pe.var_b);
      std::swap(pe.kind_a, pe.kind_b);
    }
    out.process_constraints.push_back(pe);
  }
  for (ColorConstraint cc : p.color_constraints) {
    if (remap.count(cc.var) == 0) continue;
    cc.var = relabel(cc.var);
    out.color_constraints.push_back(cc);
  }
  const auto pe_key = [](const ProcessEquality& pe) {
    return std::make_tuple(pe.var_a, pe.kind_a == R, pe.var_b,
                           pe.kind_b == R);
  };
  std::sort(out.process_constraints.begin(), out.process_constraints.end(),
            [&](const auto& a, const auto& b) { return pe_key(a) < pe_key(b); });
  std::sort(out.color_constraints.begin(), out.color_constraints.end(),
            [](const auto& a, const auto& b) {
              return std::make_pair(a.var, a.color) <
                     std::make_pair(b.var, b.color);
            });
  out.arity = remap.size();
  return out.to_string();
}

/// Per-predicate analysis state shared by the rules.
struct PredicateLint {
  const ForbiddenPredicate& pred;
  const PredicateSource* src;  // may be null
  std::size_t index;           // position in the composite
  LintResult& out;
  const LintOptions& options;

  Classification cls;
  std::vector<char> self_unsat;    // conjunct can never hold
  std::vector<char> tautological;  // conjunct always holds
  std::vector<char> duplicate;     // exact earlier copy exists
  /// Original index of each conjunct the normalized predicate kept
  /// (normalize drops tautological conjuncts and duplicates, in order).
  std::vector<std::size_t> kept_to_original;
  bool contradictory_colors = false;  // a variable needs two colors

  LintDiagnostic& add(const LintRule& rule) {
    LintDiagnostic d;
    d.rule = &rule;
    d.severity = rule.severity;
    d.predicate_index = index;
    out.diagnostics.push_back(std::move(d));
    return out.diagnostics.back();
  }

  std::optional<SourceSpan> conjunct_span(std::size_t i) const {
    if (src == nullptr || i >= src->conjuncts.size()) return std::nullopt;
    return src->conjuncts[i];
  }

  std::optional<SourceSpan> predicate_span() const {
    if (src == nullptr) return std::nullopt;
    return src->span;
  }

  void run() {
    cls = classify(pred);
    classify_conjuncts();
    check_dead_variables();
    check_redundant_conjuncts();
    check_where();
    check_verdict();
  }

  void classify_conjuncts() {
    const auto& conjuncts = pred.conjuncts;
    self_unsat.assign(conjuncts.size(), 0);
    tautological.assign(conjuncts.size(), 0);
    duplicate.assign(conjuncts.size(), 0);
    for (std::size_t i = 0; i < conjuncts.size(); ++i) {
      const Conjunct& c = conjuncts[i];
      if (c.lhs == c.rhs) {
        if (c.p == S && c.q == R) {
          tautological[i] = 1;
          LintDiagnostic& d = add(rule_tautological_conjunct());
          d.message = "conjunct '" + conjunct_str(pred, c) +
                      "' always holds (a send precedes its own delivery) "
                      "and is dropped by normalization";
          d.span = conjunct_span(i);
          d.fixit = "remove this conjunct";
        } else {
          self_unsat[i] = 1;
          LintDiagnostic& d = add(rule_unsatisfiable());
          d.message = "conjunct '" + conjunct_str(pred, c) +
                      "' can never hold, so the whole predicate is "
                      "unsatisfiable and the spec forbids nothing";
          d.span = conjunct_span(i);
          d.fixit = "remove or rewrite this conjunct";
          d.notes.push_back(
              "normalization: an always-false conjunct makes B "
              "unsatisfiable; X_B is all of X_async");
        }
        continue;
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (conjuncts[j] == c && !duplicate[j]) {
          duplicate[i] = 1;
          LintDiagnostic& d = add(rule_duplicate_conjunct());
          d.message = "conjunct '" + conjunct_str(pred, c) +
                      "' duplicates conjunct #" + std::to_string(j + 1);
          d.span = conjunct_span(i);
          d.fixit = "remove the duplicate";
          break;
        }
      }
    }
    for (std::size_t i = 0; i < conjuncts.size(); ++i) {
      if (!tautological[i] && !duplicate[i]) kept_to_original.push_back(i);
    }
  }

  void check_dead_variables() {
    std::vector<char> used(pred.arity, 0);
    std::vector<char> mentioned(pred.arity, 0);
    for (std::size_t i = 0; i < pred.conjuncts.size(); ++i) {
      const Conjunct& c = pred.conjuncts[i];
      if (c.lhs < pred.arity) mentioned[c.lhs] = 1;
      if (c.rhs < pred.arity) mentioned[c.rhs] = 1;
      if (tautological[i] || duplicate[i]) continue;
      if (c.lhs < pred.arity) used[c.lhs] = 1;
      if (c.rhs < pred.arity) used[c.rhs] = 1;
    }
    for (std::size_t v = 0; v < pred.arity; ++v) {
      if (used[v]) continue;
      LintDiagnostic& d = add(rule_dead_variable());
      d.message =
          "variable '" + pred.var_name(v) + "' " +
          (mentioned[v]
               ? "survives in no conjunct after normalization"
               : "is quantified but appears in no conjunct") +
          "; it only forces the matcher to bind one more message";
      if (src != nullptr && v < src->var_first_use.size()) {
        d.span = src->var_first_use[v];
      }
      d.fixit = "remove the variable and any constraints on it";
    }
  }

  void check_redundant_conjuncts() {
    // Skip the whole pass for vacuous predicates: every conjunct of an
    // unsatisfiable B is "redundant", which would bury the real
    // diagnostic in noise.
    if (std::find(self_unsat.begin(), self_unsat.end(), 1) !=
        self_unsat.end()) {
      return;
    }
    for (std::size_t i = 0; i < pred.conjuncts.size(); ++i) {
      if (tautological[i] || duplicate[i]) continue;
      const Conjunct& c = pred.conjuncts[i];
      const EventGraph graph(pred, [&](std::size_t j) {
        return j == i || pred.conjuncts[j] == c;
      });
      const auto chain = graph.path(event_node(c.lhs, c.p),
                                    event_node(c.rhs, c.q));
      if (chain.empty()) continue;
      LintDiagnostic& d = add(rule_redundant_conjunct());
      d.message = "conjunct '" + conjunct_str(pred, c) +
                  "' is implied by the transitive closure of the other "
                  "conjuncts; dropping it leaves an equivalent predicate";
      d.span = conjunct_span(i);
      d.fixit = "remove this conjunct";
      std::string how = "implied via: " + atom_str(pred, c.lhs, c.p);
      for (const auto& [conjunct, node] : chain) {
        how += " |> " + atom_str(pred, node / 2, node % 2 ? R : S);
        how += conjunct == kNoConjunct ? " (send precedes its delivery)"
                                       : "";
      }
      d.notes.push_back(std::move(how));
    }
  }

  void check_where() {
    // Colors: one variable, two different colors -> contradiction.
    std::map<std::size_t, std::pair<int, std::size_t>> color_of;
    for (std::size_t k = 0; k < pred.color_constraints.size(); ++k) {
      const ColorConstraint& cc = pred.color_constraints[k];
      const auto [it, inserted] = color_of.try_emplace(
          cc.var, std::make_pair(cc.color, k));
      if (inserted) continue;
      const auto span = [&](std::size_t idx) -> std::optional<SourceSpan> {
        if (src == nullptr || idx >= src->color_constraints.size()) {
          return std::nullopt;
        }
        return src->color_constraints[idx];
      };
      if (it->second.first == cc.color) {
        LintDiagnostic& d = add(rule_redundant_where());
        d.message = "duplicate constraint color(" + pred.var_name(cc.var) +
                    ")=" + std::to_string(cc.color);
        d.span = span(k);
        d.fixit = "remove the duplicate constraint";
      } else {
        contradictory_colors = true;
        LintDiagnostic& d = add(rule_contradictory_where());
        d.message = "color(" + pred.var_name(cc.var) +
                    ") is constrained to both " +
                    std::to_string(it->second.first) + " and " +
                    std::to_string(cc.color) +
                    "; no message satisfies the where clause, so the "
                    "spec forbids nothing";
        d.span = span(k);
        d.fixit = "drop one of the conflicting constraints";
        d.notes.push_back("first constrained by constraint #" +
                          std::to_string(it->second.second + 1));
      }
    }

    // Process equalities: union-find over (variable, kind) atoms; a
    // constraint whose atoms are already connected adds nothing.
    std::vector<std::size_t> parent(2 * pred.arity);
    for (std::size_t n = 0; n < parent.size(); ++n) parent[n] = n;
    const auto find = [&](std::size_t n) {
      while (parent[n] != n) n = parent[n] = parent[parent[n]];
      return n;
    };
    for (std::size_t k = 0; k < pred.process_constraints.size(); ++k) {
      const ProcessEquality& pe = pred.process_constraints[k];
      const std::size_t a = event_node(pe.var_a, pe.kind_a);
      const std::size_t b = event_node(pe.var_b, pe.kind_b);
      std::string reason;
      if (a == b) {
        reason = "is trivially true";
      } else if (find(a) == find(b)) {
        reason =
            "is implied by the preceding equalities (transitive closure)";
      } else {
        parent[find(a)] = find(b);
        continue;
      }
      LintDiagnostic& d = add(rule_redundant_where());
      d.message = "constraint process(" +
                  atom_str(pred, pe.var_a, pe.kind_a) + ")=process(" +
                  atom_str(pred, pe.var_b, pe.kind_b) + ") " + reason;
      if (src != nullptr && k < src->process_constraints.size()) {
        d.span = src->process_constraints[k];
      }
      d.fixit = "remove this constraint";
    }
  }

  /// Human rendering of a witness walk, with its beta vertices, against
  /// the *normalized* predicate the classification graph was built on.
  void witness_notes(LintDiagnostic& d) {
    const ForbiddenPredicate& np = cls.normalized.predicate;
    const PredicateGraph graph(np);
    const auto& walk = cls.witness->edges;
    std::string cycle = "witness cycle:";
    for (std::size_t ei : walk) {
      const PredicateEdge& e = graph.edges()[ei];
      cycle += " (" + atom_str(np, e.from, e.p) + " |> " +
               atom_str(np, e.to, e.q) + ")";
    }
    d.notes.push_back(std::move(cycle));

    std::string betas;
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const PredicateEdge& in =
          graph.edges()[walk[(i + walk.size() - 1) % walk.size()]];
      const PredicateEdge& out = graph.edges()[walk[i]];
      if (PredicateGraph::beta_junction(in, out)) {
        if (!betas.empty()) betas += ", ";
        betas += np.var_name(out.from) + " (enters at .r, leaves at .s)";
      }
    }
    d.notes.push_back("beta vertices: " +
                      (betas.empty() ? std::string("none") : betas));

    const WeakeningTrace trace =
        weaken_to_canonical(cycle_predicate(graph, walk));
    std::string lemma4 = "Lemma 4 weakening: " +
                         trace.steps.front().to_string();
    for (std::size_t i = 1; i < trace.steps.size(); ++i) {
      lemma4 += "  =>  " + trace.steps[i].to_string();
    }
    if (trace.steps.size() == 1) lemma4 += "  (already canonical)";
    d.notes.push_back(std::move(lemma4));
  }

  /// Span of the original conjunct behind edge `ei` of the normalized
  /// predicate's graph (edge order follows normalized conjunct order).
  std::optional<SourceSpan> witness_span() {
    if (!cls.witness.has_value() || cls.witness->edges.empty()) {
      return predicate_span();
    }
    const ForbiddenPredicate& np = cls.normalized.predicate;
    const PredicateGraph graph(np);
    const std::size_t kept =
        graph.edges()[cls.witness->edges.front()].conjunct_index;
    if (kept < kept_to_original.size()) {
      return conjunct_span(kept_to_original[kept]);
    }
    return predicate_span();
  }

  /// Why B can never hold in any run, or nullopt if it can.  The
  /// classification covers the conjuncts (an unsatisfiable conjunction,
  /// or an order-0 cycle forcing an event to precede itself); the where
  /// clause adds contradictory color demands.
  std::optional<std::string> never_holds_reason() const {
    if (cls.normalized.triviality == NormalTriviality::kUnsatisfiable) {
      return "the conjunction is unsatisfiable after normalization";
    }
    if (cls.min_order == 0) {
      return "the witness cycle has order 0: it forces an event to "
             "precede itself";
    }
    if (contradictory_colors) {
      return "the where clause demands two colors of one message";
    }
    return std::nullopt;
  }

  void check_verdict() {
    switch (cls.normalized.triviality) {
      case NormalTriviality::kUnsatisfiable:
        return;  // reported per offending conjunct in classify_conjuncts
      case NormalTriviality::kTautological: {
        LintDiagnostic& d = add(rule_tautological());
        d.message =
            pred.conjuncts.empty()
                ? "the predicate has no conjuncts: B holds for every "
                  "message, so the spec admits only message-free runs"
                : "every conjunct always holds, so B matches every "
                  "message and the spec admits only message-free runs";
        d.span = predicate_span();
        return;
      }
      case NormalTriviality::kNone:
        break;
    }
    if (!cls.has_cycle) {
      LintDiagnostic& d = add(rule_not_implementable());
      d.message =
          "the predicate graph is acyclic: by Theorem 2 no protocol "
          "implements this specification (an adversarial scheduler can "
          "always complete the forbidden pattern)";
      d.span = predicate_span();
      if (options.explain) {
        d.notes.push_back(
            "implementability requires a conjunct cycle x_1 -> x_2 -> "
            "... -> x_1 in the predicate graph; none exists here");
      }
      return;
    }
    if (cls.min_order == 0) {
      LintDiagnostic& d = add(rule_unsatisfiable());
      d.message =
          "the witness cycle has no beta vertex: B forces an event to "
          "precede itself and can never hold, so the spec forbids "
          "nothing (X_B is all of X_async)";
      d.span = witness_span();
      d.fixit = "break the order-0 cycle or re-orient one conjunct";
      witness_notes(d);
      return;
    }
    if (options.explain) {
      LintDiagnostic& d = add(rule_class_explanation());
      const char* why =
          cls.protocol_class == ProtocolClass::kTagged
              ? "order 1: tagging user messages suffices, control "
                "messages are provably unnecessary (X_co subset of X_B)"
              : "order >= 2: control messages are necessary and "
                "sufficient (X_sync subset of X_B, X_co is not)";
      d.message = "classified '" + to_string(cls.protocol_class) +
                  "' with minimum closed-walk order " +
                  std::to_string(*cls.min_order) + "; " + why;
      d.span = witness_span();
      witness_notes(d);
    }
  }
};

void demote_declared_intent(LintResult& result, ProtocolClass expected) {
  for (LintDiagnostic& d : result.diagnostics) {
    const bool verdict_shaped =
        (expected == ProtocolClass::kTagless &&
         d.rule == &rule_unsatisfiable()) ||
        (expected == ProtocolClass::kNotImplementable &&
         (d.rule == &rule_not_implementable() ||
          d.rule == &rule_tautological()));
    if (!verdict_shaped || d.severity == LintSeverity::kNote) continue;
    d.severity = LintSeverity::kNote;
    d.message += " [declared intent: " + to_string(expected) + "]";
  }
}

}  // namespace

std::size_t LintResult::count(LintSeverity severity) const {
  std::size_t n = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::size_t LintResult::count_at_least(LintSeverity severity) const {
  std::size_t n = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity >= severity) ++n;
  }
  return n;
}

bool LintResult::has_rule(std::string_view id) const {
  for (const LintDiagnostic& d : diagnostics) {
    if (d.rule != nullptr && d.rule->id == id) return true;
  }
  return false;
}

LintResult lint_predicate(const ForbiddenPredicate& predicate,
                          const PredicateSource* source,
                          const LintOptions& options) {
  CompositeSpec spec;
  spec.predicates.push_back(predicate);
  if (source == nullptr) return lint_spec(spec, nullptr, options);
  SpecSource spec_source;
  spec_source.predicates.push_back(*source);
  return lint_spec(spec, &spec_source, options);
}

LintResult lint_spec(const CompositeSpec& spec, const SpecSource* source,
                     const LintOptions& options) {
  LintResult result;
  std::vector<ProtocolClass> classes;
  std::vector<std::optional<std::string>> never_holds;
  for (std::size_t i = 0; i < spec.predicates.size(); ++i) {
    const PredicateSource* pred_source =
        source != nullptr && i < source->predicates.size()
            ? &source->predicates[i]
            : nullptr;
    PredicateLint lint{spec.predicates[i], pred_source, i, result, options,
                       {}, {}, {}, {}, {}, false};
    lint.run();
    classes.push_back(lint.cls.protocol_class);
    never_holds.push_back(lint.never_holds_reason());
  }

  // L015: dead disjunction arms.  Only statements the parser recorded
  // as multi-arm disjunctions are analyzed (the groups are how the spec
  // was *written*; programmatic composites have no disjunction intent).
  // An arm is dead iff its pattern can never hold (never_holds_reason)
  // — X_{A or B} = X_A intersect X_B, so a never-firing arm leaves the
  // intersection unchanged.
  if (source != nullptr &&
      source->disjunct_group.size() == spec.predicates.size()) {
    std::map<std::size_t, std::size_t> group_size;
    for (const std::size_t g : source->disjunct_group) ++group_size[g];
    std::map<std::size_t, std::size_t> arm_within_group;
    for (std::size_t i = 0; i < spec.predicates.size(); ++i) {
      const std::size_t group = source->disjunct_group[i];
      const std::size_t arm = ++arm_within_group[group];
      if (group_size[group] < 2) continue;
      if (!never_holds[i].has_value()) continue;
      LintDiagnostic d;
      d.rule = &rule_dead_disjunct();
      d.severity = d.rule->severity;
      d.predicate_index = i;
      d.message = "disjunct arm #" + std::to_string(arm) +
                  " can never fire; the disjunction forbids exactly what "
                  "the remaining arm(s) forbid";
      if (i < source->predicates.size()) {
        d.span = source->predicates[i].span;
      }
      d.fixit = "drop this arm";
      d.notes.push_back(*never_holds[i]);
      result.diagnostics.push_back(std::move(d));
    }
  }

  // L016: a concurrency bound of 0 forbids ever *sending* a matching
  // message — legal, but almost always a fencepost mistake.
  for (std::size_t i = 0; i < spec.counting.size(); ++i) {
    const CountingPredicate& counting = spec.counting[i];
    if (counting.limit != 0) continue;
    LintDiagnostic d;
    d.rule = &rule_degenerate_counting();
    d.severity = d.rule->severity;
    d.message =
        "'" + counting.to_string() + "' rejects every run that sends a " +
        (counting.color.has_value()
             ? "color-" + std::to_string(*counting.color) + " message"
             : std::string("message")) +
        " (the count exceeds 0 the moment one is in flight)";
    if (source != nullptr && i < source->counting.size()) {
      d.span = source->counting[i];
    }
    d.fixit = "raise the bound or drop the statement";
    result.diagnostics.push_back(std::move(d));
  }

  // L010: duplicate predicates (identical up to variable renaming).
  std::map<std::string, std::size_t> first_with_key;
  for (std::size_t i = 0; i < spec.predicates.size(); ++i) {
    const auto [it, inserted] =
        first_with_key.try_emplace(canonical_key(spec.predicates[i]), i);
    if (inserted) continue;
    LintDiagnostic d;
    d.rule = &rule_duplicate_predicate();
    d.severity = d.rule->severity;
    d.predicate_index = i;
    d.message = "predicate #" + std::to_string(i + 1) +
                " is identical (up to variable renaming) to predicate #" +
                std::to_string(it->second + 1) +
                "; the intersection is unchanged by dropping one";
    if (source != nullptr && i < source->predicates.size()) {
      d.span = source->predicates[i].span;
    }
    d.fixit = "remove this predicate";
    result.diagnostics.push_back(std::move(d));
  }

  result.spec_class = ProtocolClass::kTagless;
  std::size_t binding = 0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (static_cast<int>(classes[i]) >
        static_cast<int>(result.spec_class)) {
      result.spec_class = classes[i];
      binding = i;
    }
  }

  // A bounded-counting statement is a *global* constraint: enforcing it
  // requires processes to agree on the in-flight count, which tags on
  // user messages cannot convey — control messages are needed, so the
  // composite needs at least the general class.
  const bool counting_binds =
      !spec.counting.empty() &&
      static_cast<int>(result.spec_class) <
          static_cast<int>(ProtocolClass::kGeneral);
  if (counting_binds) result.spec_class = ProtocolClass::kGeneral;
  if (counting_binds && options.explain) {
    LintDiagnostic d;
    d.rule = &rule_class_explanation();
    d.severity = d.rule->severity;
    d.message =
        "the bounded-counting statement(s) raise the required class to "
        "'general': a global in-flight bound needs control-message "
        "coordination, not just tags";
    result.diagnostics.push_back(std::move(d));
  }

  if (options.explain && spec.predicates.size() > 1) {
    LintDiagnostic d;
    d.rule = &rule_class_explanation();
    d.severity = d.rule->severity;
    d.message = "composite of " + std::to_string(spec.predicates.size()) +
                " predicates requires class '" +
                to_string(result.spec_class) + "', forced by predicate #" +
                std::to_string(binding + 1) +
                " (the verdict is the most demanding component)";
    result.diagnostics.push_back(std::move(d));
  }

  // L013: over-strength — dropping the binding predicate(s) of a
  // composite weakens the spec (the intersection loses a factor) and
  // lowers the required class.
  const bool declared_ok = options.expected.has_value() &&
                           *options.expected == result.spec_class;
  if (spec.predicates.size() > 1 && !declared_ok &&
      result.spec_class != ProtocolClass::kTagless) {
    std::vector<std::size_t> at_max;
    ProtocolClass rest = ProtocolClass::kTagless;
    bool have_rest = false;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (classes[i] == result.spec_class) {
        at_max.push_back(i);
      } else {
        have_rest = true;
        rest = std::max(rest, classes[i], [](ProtocolClass a,
                                             ProtocolClass b) {
          return static_cast<int>(a) < static_cast<int>(b);
        });
      }
    }
    if (have_rest && rest != result.spec_class) {
      for (std::size_t i : at_max) {
        LintDiagnostic d;
        d.rule = &rule_over_strength();
        d.severity = d.rule->severity;
        d.predicate_index = i;
        d.message =
            at_max.size() == 1
                ? "dropping this predicate lowers the required protocol "
                  "class from '" + to_string(result.spec_class) +
                      "' to '" + to_string(rest) + "'"
                : "this is one of " + std::to_string(at_max.size()) +
                      " predicates forcing class '" +
                      to_string(result.spec_class) +
                      "'; dropping them lowers the requirement to '" +
                      to_string(rest) + "'";
        if (source != nullptr && i < source->predicates.size()) {
          d.span = source->predicates[i].span;
        }
        result.diagnostics.push_back(std::move(d));
      }
    }
  }

  if (options.expected.has_value()) {
    if (*options.expected == result.spec_class) {
      demote_declared_intent(result, *options.expected);
    } else {
      LintDiagnostic d;
      d.rule = &rule_class_mismatch();
      d.severity = d.rule->severity;
      d.message = "declared intent is class '" +
                  to_string(*options.expected) +
                  "' but the spec classifies as '" +
                  to_string(result.spec_class) + "'";
      result.diagnostics.push_back(std::move(d));
    }
  }
  return result;
}

LintResult lint_text(std::string_view text, const LintOptions& options) {
  ParseSpecResult parsed = parse_spec(text);
  if (!parsed.ok()) {
    LintResult result;
    result.parsed = false;
    LintDiagnostic d;
    d.rule = &rule_parse_error();
    d.severity = d.rule->severity;
    d.message = parsed.detail->message;
    if (!parsed.detail->lexeme.empty()) {
      d.message += " (found '" + parsed.detail->lexeme + "')";
    }
    d.span = parsed.detail->span;
    result.diagnostics.push_back(std::move(d));
    return result;
  }
  SpecSource source;
  source.text = std::string(text);
  source.predicates = std::move(parsed.sources);
  source.counting = std::move(parsed.counting_sources);
  source.disjunct_group = std::move(parsed.disjunct_group);
  return lint_spec(*parsed.spec, &source, options);
}

namespace {

std::optional<ProtocolClass> class_by_name(const std::string& name) {
  for (const ProtocolClass c :
       {ProtocolClass::kTagless, ProtocolClass::kTagged,
        ProtocolClass::kGeneral, ProtocolClass::kNotImplementable}) {
    if (to_string(c) == name) return c;
  }
  return std::nullopt;
}

}  // namespace

SpecFileText preprocess_spec_text(std::string_view raw) {
  SpecFileText file;
  file.text = std::string(raw);
  std::size_t line_start = 0;
  while (line_start <= file.text.size()) {
    std::size_t line_end = file.text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = file.text.size();
    std::size_t first = line_start;
    while (first < line_end &&
           (file.text[first] == ' ' || file.text[first] == '\t')) {
      ++first;
    }
    if (first < line_end && file.text[first] == '#') {
      const std::string comment =
          file.text.substr(first + 1, line_end - first - 1);
      const std::size_t key = comment.find("expect:");
      if (key != std::string::npos) {
        std::string value = comment.substr(key + 7);
        const std::size_t begin = value.find_first_not_of(" \t");
        const std::size_t end = value.find_last_not_of(" \t\r");
        value = begin == std::string::npos
                    ? ""
                    : value.substr(begin, end - begin + 1);
        file.expected = class_by_name(value);
        if (!file.expected.has_value()) {
          file.bad_expect_class = value;
          // Span of the class name in the ORIGINAL text (an empty
          // value points at the pragma keyword instead).
          const std::size_t value_offset =
              value.empty() ? first + 1 + key
                            : first + 1 + key + 7 + begin;
          const std::size_t value_length =
              value.empty() ? 7 : value.size();
          file.bad_expect_span = span_in(raw, value_offset, value_length);
        }
      }
      for (std::size_t i = line_start; i < line_end; ++i) {
        file.text[i] = ' ';
      }
    }
    line_start = line_end + 1;
  }
  return file;
}

LintResult lint_file_text(std::string_view raw, const LintOptions& options,
                          SpecFileText* file_out) {
  SpecFileText file = preprocess_spec_text(raw);
  LintOptions effective = options;
  if (file.expected.has_value()) effective.expected = file.expected;
  LintResult result = lint_text(file.text, effective);
  if (!file.bad_expect_class.empty() || file.bad_expect_span.length > 0) {
    LintDiagnostic d;
    d.rule = &rule_unknown_expect_class();
    d.severity = d.rule->severity;
    d.message = "unknown '# expect:' class '" + file.bad_expect_class +
                "'; valid classes are tagless, tagged, general, and "
                "not-implementable";
    d.span = file.bad_expect_span;
    d.fixit = "# expect: " + to_string(result.spec_class);
    // Put the pragma diagnostic first: it sits above the spec text and
    // explains why no intent demotion happened.
    result.diagnostics.insert(result.diagnostics.begin(), std::move(d));
  }
  if (file_out != nullptr) *file_out = std::move(file);
  return result;
}

std::string render_lint_text(const LintResult& result,
                             std::string_view source_text,
                             std::string_view input_name) {
  std::ostringstream out;
  for (const LintDiagnostic& d : result.diagnostics) {
    out << input_name;
    if (d.span.has_value()) {
      out << ":" << d.span->line << ":" << d.span->column;
    }
    out << ": " << to_string(d.severity) << " [" << d.rule->id << " "
        << d.rule->name << "] " << d.message << "\n";
    if (d.span.has_value() && !source_text.empty() &&
        d.span->offset <= source_text.size()) {
      std::size_t line_begin =
          source_text.rfind('\n', d.span->offset == 0 ? 0
                                                      : d.span->offset - 1);
      line_begin = line_begin == std::string_view::npos ? 0 : line_begin + 1;
      std::size_t line_end = source_text.find('\n', d.span->offset);
      if (line_end == std::string_view::npos) line_end = source_text.size();
      out << "    "
          << source_text.substr(line_begin, line_end - line_begin) << "\n";
      out << "    " << std::string(d.span->offset - line_begin, ' ') << "^";
      const std::size_t underline =
          std::min(d.span->length, line_end - d.span->offset);
      if (underline > 1) out << std::string(underline - 1, '~');
      out << "\n";
    }
    for (const std::string& note : d.notes) {
      out << "    note: " << note << "\n";
    }
    if (!d.fixit.empty()) out << "    fix-it: " << d.fixit << "\n";
  }
  out << input_name << ": " << result.count(LintSeverity::kError)
      << " error(s), " << result.count(LintSeverity::kWarning)
      << " warning(s), " << result.count(LintSeverity::kHint)
      << " hint(s)";
  if (result.parsed) {
    out << " — class: " << to_string(result.spec_class);
  }
  out << "\n";
  return out.str();
}

std::string lint_artifact_json(const std::vector<LintInput>& inputs) {
  JsonWriter w;
  std::map<std::string, std::uint64_t> by_rule;
  std::map<std::string, std::uint64_t> by_severity{
      {"error", 0}, {"warning", 0}, {"hint", 0}, {"note", 0}};
  w.begin_object();
  w.kv("schema", "msgorder.lint/1");
  w.key("inputs").begin_array();
  for (const LintInput& input : inputs) {
    w.begin_object();
    w.kv("name", input.name);
    w.kv("parsed", input.result.parsed);
    if (input.result.parsed) {
      w.kv("class", to_string(input.result.spec_class));
    }
    w.kv("clean", input.result.clean());
    w.key("counts").begin_object();
    for (const LintSeverity sev :
         {LintSeverity::kError, LintSeverity::kWarning, LintSeverity::kHint,
          LintSeverity::kNote}) {
      const std::uint64_t n = input.result.count(sev);
      w.kv(to_string(sev), n);
      by_severity[to_string(sev)] += n;
    }
    w.end_object();
    w.key("diagnostics").begin_array();
    for (const LintDiagnostic& d : input.result.diagnostics) {
      ++by_rule[std::string(d.rule->id)];
      w.begin_object();
      w.kv("rule", d.rule->id);
      w.kv("name", d.rule->name);
      w.kv("severity", to_string(d.severity));
      w.kv("message", d.message);
      if (d.predicate_index.has_value()) {
        w.kv("predicate",
             static_cast<std::uint64_t>(*d.predicate_index));
      }
      if (d.span.has_value()) {
        w.key("span").begin_object();
        w.kv("offset", static_cast<std::uint64_t>(d.span->offset));
        w.kv("length", static_cast<std::uint64_t>(d.span->length));
        w.kv("line", static_cast<std::uint64_t>(d.span->line));
        w.kv("column", static_cast<std::uint64_t>(d.span->column));
        w.end_object();
      }
      if (!d.fixit.empty()) w.kv("fixit", d.fixit);
      if (!d.notes.empty()) {
        w.key("notes").begin_array();
        for (const std::string& note : d.notes) w.value(note);
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("totals").begin_object();
  w.kv("inputs", static_cast<std::uint64_t>(inputs.size()));
  for (const auto& [severity, n] : by_severity) w.kv(severity, n);
  w.key("by_rule").begin_object();
  for (const auto& [rule, n] : by_rule) w.kv(rule, n);
  w.end_object();
  w.end_object();
  bool clean = true;
  for (const LintInput& input : inputs) {
    clean = clean && input.result.clean();
  }
  w.kv("clean", clean);
  w.end_object();
  return w.take();
}

}  // namespace msgorder
