#include "src/checker/violation.hpp"

#include <algorithm>

#include "src/checker/search.hpp"

namespace msgorder {

namespace {

class ViolationSearch {
 public:
  ViolationSearch(const UserRun& run, const ForbiddenPredicate& predicate)
      : run_(run), predicate_(predicate) {}

  std::optional<ViolationWitness> search() {
    if (predicate_.arity == 0 ||
        predicate_.arity > run_.message_count()) {
      return std::nullopt;
    }
    assignment_.assign(predicate_.arity, 0);
    used_.assign(run_.message_count(), false);
    if (extend(0)) return assignment_;
    return std::nullopt;
  }

 private:
  /// Check constraints and conjuncts that became fully bound when
  /// variable v was assigned.
  bool consistent(std::size_t v) const {
    for (const Conjunct& c : predicate_.conjuncts) {
      if (c.lhs > v || c.rhs > v) continue;
      if (c.lhs != v && c.rhs != v) continue;  // checked earlier
      if (!run_.before(assignment_[c.lhs], c.p, assignment_[c.rhs], c.q)) {
        return false;
      }
    }
    for (const ProcessEquality& pe : predicate_.process_constraints) {
      if (pe.var_a > v || pe.var_b > v) continue;
      if (pe.var_a != v && pe.var_b != v) continue;
      const ProcessId a =
          run_.process_of({assignment_[pe.var_a], pe.kind_a});
      const ProcessId b =
          run_.process_of({assignment_[pe.var_b], pe.kind_b});
      if (a != b) return false;
    }
    for (const ColorConstraint& cc : predicate_.color_constraints) {
      if (cc.var != v) continue;
      if (run_.color_of(assignment_[v]) != cc.color) return false;
    }
    return true;
  }

  bool extend(std::size_t v) {
    if (v == predicate_.arity) return true;
    for (MessageId m = 0; m < run_.message_count(); ++m) {
      if (used_[m]) continue;  // distinct-message quantification
      assignment_[v] = m;
      if (consistent(v)) {
        used_[m] = true;
        if (extend(v + 1)) return true;
        used_[m] = false;
      }
    }
    return false;
  }

  const UserRun& run_;
  const ForbiddenPredicate& predicate_;
  ViolationWitness assignment_;
  std::vector<bool> used_;
};

}  // namespace

std::optional<ViolationWitness> find_violation(
    const UserRun& run, const ForbiddenPredicate& predicate) {
  WitnessEngine engine(predicate, run.messages());
  const BitMatrix ancestors = run.order().matrix().transposed();
  const WitnessEngine::View view{&run.order().matrix(), &ancestors,
                                 nullptr, nullptr};
  ViolationWitness witness;
  if (engine.search(view, witness)) return witness;
  return std::nullopt;
}

std::optional<ViolationWitness> find_violation_naive(
    const UserRun& run, const ForbiddenPredicate& predicate) {
  return ViolationSearch(run, predicate).search();
}

std::size_t max_concurrency_width(const UserRun& run,
                                  std::optional<int> color) {
  std::vector<MessageId> pool;
  for (MessageId m = 0; m < run.message_count(); ++m) {
    if (!color.has_value() || run.color_of(m) == *color) pool.push_back(m);
  }
  const std::size_t n = pool.size();
  if (n == 0) return 0;

  // x < y iff x's delivery causally precedes y's send: x and y can
  // never be in flight together.  The relation is transitive (via
  // x.r |> y.s |> y.r |> z.s), so Dilworth applies: the width equals
  // n minus a maximum matching of the comparability DAG.
  std::vector<std::vector<std::size_t>> succ(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && run.before(pool[i], UserEventKind::kDeliver, pool[j],
                               UserEventKind::kSend)) {
        succ[i].push_back(j);
      }
    }
  }
  std::vector<long> match_right(n, -1);
  std::vector<char> visited(n, 0);
  const auto augment = [&](const auto& self, std::size_t u) -> bool {
    for (const std::size_t v : succ[u]) {
      if (visited[v] != 0) continue;
      visited[v] = 1;
      if (match_right[v] < 0 ||
          self(self, static_cast<std::size_t>(match_right[v]))) {
        match_right[v] = static_cast<long>(u);
        return true;
      }
    }
    return false;
  };
  std::size_t matched = 0;
  for (std::size_t u = 0; u < n; ++u) {
    std::fill(visited.begin(), visited.end(), 0);
    if (augment(augment, u)) ++matched;
  }
  return n - matched;
}

bool exceeds_concurrency(const UserRun& run,
                         const CountingPredicate& counting) {
  return max_concurrency_width(run, counting.color) > counting.limit;
}

bool satisfies(const UserRun& run, const ForbiddenPredicate& predicate) {
  return !find_violation(run, predicate).has_value();
}

bool satisfies(const UserRun& run, const CompositeSpec& spec) {
  for (const ForbiddenPredicate& p : spec.predicates) {
    if (!satisfies(run, p)) return false;
  }
  for (const CountingPredicate& c : spec.counting) {
    if (exceeds_concurrency(run, c)) return false;
  }
  return true;
}

std::string witness_to_string(const ForbiddenPredicate& predicate,
                              const ViolationWitness& witness) {
  std::string out;
  for (std::size_t v = 0; v < witness.size(); ++v) {
    if (v) out += ", ";
    out += predicate.var_name(v) + ":=m" + std::to_string(witness[v]);
  }
  return out;
}

}  // namespace msgorder
