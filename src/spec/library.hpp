// The catalogue of message-ordering specifications discussed in the paper:
// the Lemma 3 canonical predicates, the classical orderings (FIFO, causal,
// logically synchronous), the flush-channel family, k-weaker causal
// ordering, and the Section 5 examples (mobile handoff, receive-second-
// before-first).  Each entry records the classification the paper
// derives, so the Table-1 benchmark can print paper-vs-measured rows.
#pragma once

#include <string>
#include <vector>

#include "src/spec/classify.hpp"
#include "src/spec/predicate.hpp"

namespace msgorder {

struct NamedSpec {
  std::string name;
  std::string description;
  std::string paper_ref;  // where in the paper this spec appears
  ForbiddenPredicate predicate;
  ProtocolClass expected;  // the classification the paper derives
};

/// All single-predicate zoo entries.
std::vector<NamedSpec> spec_zoo();

/// Individual builders (used directly by protocols and tests).

/// Causal ordering, canonical form B2:  (x.s |> y.s) & (y.r |> x.r).
ForbiddenPredicate causal_ordering();
/// Lemma 3.2 variants B1 and B3 (equivalent to causal ordering).
ForbiddenPredicate causal_ordering_b1();
ForbiddenPredicate causal_ordering_b3();

/// FIFO: causal shape restricted to a single channel via process
/// equalities (Section 5).
ForbiddenPredicate fifo();

/// The k-crown crossing predicate of X_sync (Lemma 3.1):
///   (x1.s |> x2.r) & (x2.s |> x3.r) & ... & (xk.s |> x1.r).
ForbiddenPredicate sync_crown(std::size_t k);

/// The five Lemma 3.3 predicates whose specification set is X_async.
std::vector<ForbiddenPredicate> async_zoo();

/// k-weaker causal ordering (Section 5): messages may be overtaken by at
/// most k causally later sends:
///   (s1 |> s2) & ... & (s_{k+1} |> s_{k+2}) & (r_{k+2} |> r1).
ForbiddenPredicate k_weaker_causal(std::size_t k);

/// Local forward flush (Section 5): on each channel, messages sent before
/// a red message are delivered before it.
ForbiddenPredicate local_forward_flush(int red = 1);
/// Global forward flush (Section 5): same without the channel restriction.
ForbiddenPredicate global_forward_flush(int red = 1);
/// Backward flush: messages sent after a red message are delivered after
/// it (the F-channel dual of forward flush).
ForbiddenPredicate local_backward_flush(int red = 1);
/// Two-way flush: the intersection of forward and backward flush.
CompositeSpec two_way_flush(int red = 1);
/// The causal-ordering flush primitives of [12]: the global (cross-
/// channel) backward flush, and the global two-way flush composite.
ForbiddenPredicate global_backward_flush(int red = 1);
CompositeSpec global_two_way_flush(int red = 1);

/// Mobile handoff (Section 5 discussion): handoff messages (color =
/// `handoff`) must not cross any other message — modelled as the 2-crown
/// restricted to a handoff participant, the weakest consequence of the
/// paper's "totally ordered with everything" requirement.  Order 2, so
/// control messages are necessary, matching the paper's conclusion.
ForbiddenPredicate mobile_handoff(int handoff = 2);

/// "Deliver the second message before the first" (Section 5): forbids
/// (s1 |> s2) & (r1 |> r2); acyclic graph, hence not implementable.
ForbiddenPredicate receive_second_before_first();

/// Marked-send ordering: forbid one process sending a `first`-colored
/// message and later a `second`-colored one —
///   (x.s |> y.s) where process(x.s)=process(y.s),
///                       color(x)=first, color(y)=second.
/// A monitoring spec: like receive-2nd-before-1st its graph is acyclic,
/// so no protocol can *enforce* it, but the online monitor (kPruned)
/// detects it.
ForbiddenPredicate marked_send_order(int first = 1, int second = 2);

/// Full logical synchrony as a composite spec: crowns k = 2..max_k.
CompositeSpec logically_synchronous(std::size_t max_k);

}  // namespace msgorder
