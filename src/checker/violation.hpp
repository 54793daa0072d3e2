// Generic specification checking: search a user-view run for an
// instantiation of a forbidden predicate's variables that satisfies every
// conjunct and range constraint.  This is the ground-truth oracle used to
// validate protocol implementations (a protocol is safe for X_B iff no
// trace it produces contains a violation witness).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/poset/user_run.hpp"
#include "src/spec/predicate.hpp"

namespace msgorder {

/// A satisfying assignment: witness[v] is the message bound to variable v.
using ViolationWitness = std::vector<MessageId>;

/// Find some instantiation satisfying B in the run, or nullopt if the run
/// belongs to X_B.  Variables bind to pairwise *distinct* messages: the
/// paper's quantifiers range over tuples of different messages (with
/// repeats allowed, the trivially true x.s |> x.r conjunct would make
/// every crown predicate hold in every non-empty run and X_sync would be
/// empty).  Runs on the bitset-pruned WitnessEngine (candidate bitsets
/// intersected word-parallel from the poset's reachability rows); returns
/// the same lexicographically-first witness as the seed scan.
std::optional<ViolationWitness> find_violation(
    const UserRun& run, const ForbiddenPredicate& predicate);

/// The seed's unpruned backtracking scan, kept as the reference
/// implementation for the equivalence tests and before/after benches.
/// Worst case O(|M|^arity) with conjunct-level pruning only.
std::optional<ViolationWitness> find_violation_naive(
    const UserRun& run, const ForbiddenPredicate& predicate);

/// True iff the run is in X_B.
bool satisfies(const UserRun& run, const ForbiddenPredicate& predicate);

/// The largest number of matching messages that are simultaneously in
/// flight in *some* linearization of the run: the width of the interval
/// order  x < y  iff  x.r |> y.s  over messages of the given color
/// (nullopt: all messages), computed as Dilworth's  n - max_matching .
std::size_t max_concurrency_width(const UserRun& run,
                                  std::optional<int> color);

/// True iff the run violates the counting spec: some linearization puts
/// more than `limit` matching messages in flight at once.
bool exceeds_concurrency(const UserRun& run,
                         const CountingPredicate& counting);

/// True iff the run is in the intersection of all component specs.
bool satisfies(const UserRun& run, const CompositeSpec& spec);

/// Render a witness for diagnostics: "x:=m3, y:=m1".
std::string witness_to_string(const ForbiddenPredicate& predicate,
                              const ViolationWitness& witness);

}  // namespace msgorder
