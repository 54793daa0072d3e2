// Forbidden predicates (paper Section 4).
//
// A forbidden predicate is
//     B  =  exists x_1..x_m in M :  /\ (x_j.p |> x_k.q)
// optionally restricted by attribute range constraints over the
// quantified variables (process equality and message color, Section 4.1).
// The specification X_B is the set of complete user-view runs in which no
// instantiation of the variables satisfies B.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/poset/event.hpp"

namespace msgorder {

/// One conjunct  x_lhs.p |> x_rhs.q .
struct Conjunct {
  std::size_t lhs = 0;
  UserEventKind p = UserEventKind::kSend;
  std::size_t rhs = 0;
  UserEventKind q = UserEventKind::kSend;

  bool operator==(const Conjunct&) const = default;
};

/// Range constraint  process(x_a.kind_a) == process(x_b.kind_b) .
/// (process(x.s) is the sender of x; process(x.r) is the receiver.)
struct ProcessEquality {
  std::size_t var_a = 0;
  UserEventKind kind_a = UserEventKind::kSend;
  std::size_t var_b = 0;
  UserEventKind kind_b = UserEventKind::kSend;

  bool operator==(const ProcessEquality&) const = default;
};

/// Range constraint  color(x_var) == color .
struct ColorConstraint {
  std::size_t var = 0;
  int color = 0;

  bool operator==(const ColorConstraint&) const = default;
};

struct ForbiddenPredicate {
  /// Number of quantified message variables x_0..x_{arity-1}.
  std::size_t arity = 0;
  std::vector<Conjunct> conjuncts;
  std::vector<ProcessEquality> process_constraints;
  std::vector<ColorConstraint> color_constraints;
  /// Optional variable names for pretty-printing (size arity or empty).
  std::vector<std::string> var_names;

  bool operator==(const ForbiddenPredicate&) const = default;

  /// "(x.s |> y.s) & (y.r |> x.r) where color(y)=1" style rendering.
  std::string to_string() const;

  /// Name of variable v ("x", "y", ... or stored names).
  std::string var_name(std::size_t v) const;
};

/// Result of structural normalization (see DESIGN.md, "refinements"):
///  * conjuncts x.s |> x.r are tautological in complete runs -> dropped;
///  * conjuncts x.s |> x.s, x.r |> x.r, x.r |> x.s are unsatisfiable ->
///    the whole predicate can never hold, so X_B = X_async;
///  * duplicate conjuncts are removed, unused variables dropped;
///  * an empty conjunction is identically true, so X_B excludes every run
///    containing at least one message.
enum class NormalTriviality {
  kNone,           // a real predicate remains
  kUnsatisfiable,  // B never holds: X_B = X_async (trivial spec)
  kTautological,   // B always holds: X_B = (runs with no messages)
};

struct NormalizedPredicate {
  NormalTriviality triviality = NormalTriviality::kNone;
  ForbiddenPredicate predicate;  // meaningful iff triviality == kNone
};

NormalizedPredicate normalize(const ForbiddenPredicate& predicate);

/// Convenience builders used throughout tests and the spec library.
ForbiddenPredicate make_predicate(
    std::size_t arity, std::vector<Conjunct> conjuncts,
    std::vector<ProcessEquality> process_constraints = {},
    std::vector<ColorConstraint> color_constraints = {});

/// Bounded-counting specification: "at most `limit` matching messages
/// concurrently in flight".  A message is in flight between its send and
/// its delivery; `color` restricts the count to messages of one color
/// (nullopt counts every message).  It is checked offline by the width
/// oracle max_concurrency_width (violation.hpp): the width of the
/// interval order  x < y  iff  x.r |> y.s  over the matching messages
/// (see DESIGN.md §9).
struct CountingPredicate {
  std::optional<int> color;
  std::size_t limit = 0;

  bool operator==(const CountingPredicate&) const = default;

  /// "concurrent(color=1) <= 3" style rendering.
  std::string to_string() const;
};

/// A specification given as an intersection of forbidden-predicate sets:
/// X = intersect_i X_{B_i}.  (Two-way flush and full logical synchrony
/// need more than one predicate.)  Disjunction in the DSL desugars here
/// too: forbidding A | B means a valid run avoids both patterns, which
/// is exactly X_A ∩ X_B, so each disjunct becomes its own predicate.
/// Counting specs (ISSUE 8) intersect in the same way.
struct CompositeSpec {
  std::vector<ForbiddenPredicate> predicates;
  std::vector<CountingPredicate> counting;

  std::string to_string() const;
};

}  // namespace msgorder
