#include "src/spec/predicate.hpp"

#include <algorithm>

namespace msgorder {

std::string ForbiddenPredicate::var_name(std::size_t v) const {
  if (v < var_names.size() && !var_names[v].empty()) return var_names[v];
  // Default names x, y, z, w, then x4, x5, ...
  static constexpr const char* kDefaults[] = {"x", "y", "z", "w"};
  if (v < 4) return kDefaults[v];
  std::string name = "x";
  name += std::to_string(v);
  return name;
}

std::string ForbiddenPredicate::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    const Conjunct& c = conjuncts[i];
    if (i) out += " & ";
    out += "(";
    out += var_name(c.lhs);
    out += ".";
    out += kind_name(c.p);
    out += " |> ";
    out += var_name(c.rhs);
    out += ".";
    out += kind_name(c.q);
    out += ")";
  }
  if (conjuncts.empty()) out += "true";
  const bool has_where =
      !process_constraints.empty() || !color_constraints.empty();
  if (has_where) out += " where ";
  bool first = true;
  for (const ProcessEquality& pe : process_constraints) {
    if (!first) out += ", ";
    first = false;
    out += "process(" + var_name(pe.var_a) + "." + kind_name(pe.kind_a) +
           ")=process(" + var_name(pe.var_b) + "." + kind_name(pe.kind_b) +
           ")";
  }
  for (const ColorConstraint& cc : color_constraints) {
    if (!first) out += ", ";
    first = false;
    out += "color(" + var_name(cc.var) + ")=" + std::to_string(cc.color);
  }
  return out;
}

NormalizedPredicate normalize(const ForbiddenPredicate& predicate) {
  NormalizedPredicate result;

  // Unsatisfiable self-conjuncts make the whole conjunction false.
  for (const Conjunct& c : predicate.conjuncts) {
    if (c.lhs == c.rhs &&
        !(c.p == UserEventKind::kSend && c.q == UserEventKind::kDeliver)) {
      // x.s |> x.s, x.r |> x.r are irreflexivity violations and
      // x.r |> x.s contradicts x.s |> x.r.
      result.triviality = NormalTriviality::kUnsatisfiable;
      return result;
    }
  }

  // Drop tautological x.s |> x.r conjuncts and duplicates.
  std::vector<Conjunct> kept;
  for (const Conjunct& c : predicate.conjuncts) {
    if (c.lhs == c.rhs) continue;  // x.s |> x.r, always true
    if (std::find(kept.begin(), kept.end(), c) == kept.end()) {
      kept.push_back(c);
    }
  }
  if (kept.empty()) {
    result.triviality = NormalTriviality::kTautological;
    return result;
  }

  // Drop variables mentioned by no conjunct, renumbering densely.
  std::vector<bool> used(predicate.arity, false);
  for (const Conjunct& c : kept) {
    used[c.lhs] = true;
    used[c.rhs] = true;
  }
  std::vector<std::size_t> remap(predicate.arity, 0);
  std::size_t next = 0;
  for (std::size_t v = 0; v < predicate.arity; ++v) {
    if (used[v]) remap[v] = next++;
  }

  ForbiddenPredicate out;
  out.arity = next;
  for (Conjunct c : kept) {
    c.lhs = remap[c.lhs];
    c.rhs = remap[c.rhs];
    out.conjuncts.push_back(c);
  }
  for (ProcessEquality pe : predicate.process_constraints) {
    if (!used[pe.var_a] || !used[pe.var_b]) continue;
    pe.var_a = remap[pe.var_a];
    pe.var_b = remap[pe.var_b];
    out.process_constraints.push_back(pe);
  }
  for (ColorConstraint cc : predicate.color_constraints) {
    if (!used[cc.var]) continue;
    cc.var = remap[cc.var];
    out.color_constraints.push_back(cc);
  }
  if (!predicate.var_names.empty()) {
    out.var_names.resize(next);
    for (std::size_t v = 0; v < predicate.arity; ++v) {
      if (used[v] && v < predicate.var_names.size()) {
        out.var_names[remap[v]] = predicate.var_names[v];
      }
    }
  }
  result.predicate = std::move(out);
  return result;
}

ForbiddenPredicate make_predicate(
    std::size_t arity, std::vector<Conjunct> conjuncts,
    std::vector<ProcessEquality> process_constraints,
    std::vector<ColorConstraint> color_constraints) {
  ForbiddenPredicate p;
  p.arity = arity;
  p.conjuncts = std::move(conjuncts);
  p.process_constraints = std::move(process_constraints);
  p.color_constraints = std::move(color_constraints);
  return p;
}

std::string CountingPredicate::to_string() const {
  std::string out = "concurrent";
  if (color.has_value()) out += "(color=" + std::to_string(*color) + ")";
  out += " <= " + std::to_string(limit);
  return out;
}

std::string CompositeSpec::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < predicates.size(); ++i) {
    if (i) out += "  AND  ";
    out += "forbid " + predicates[i].to_string();
  }
  for (const CountingPredicate& c : counting) {
    if (!out.empty()) out += "  AND  ";
    out += c.to_string();
  }
  return out;
}

}  // namespace msgorder
