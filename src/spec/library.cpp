#include "src/spec/library.hpp"

namespace msgorder {

namespace {

constexpr UserEventKind S = UserEventKind::kSend;
constexpr UserEventKind R = UserEventKind::kDeliver;

}  // namespace

ForbiddenPredicate causal_ordering() {
  // B2 = (x.s |> y.s) & (y.r |> x.r)
  return make_predicate(2, {{0, S, 1, S}, {1, R, 0, R}});
}

ForbiddenPredicate causal_ordering_b1() {
  // B1 = (x.s |> y.r) & (y.r |> x.r)
  return make_predicate(2, {{0, S, 1, R}, {1, R, 0, R}});
}

ForbiddenPredicate causal_ordering_b3() {
  // B3 = (x.s |> y.s) & (y.s |> x.r)
  return make_predicate(2, {{0, S, 1, S}, {1, S, 0, R}});
}

ForbiddenPredicate fifo() {
  ForbiddenPredicate p = causal_ordering();
  p.process_constraints = {{0, S, 1, S}, {0, R, 1, R}};
  return p;
}

ForbiddenPredicate sync_crown(std::size_t k) {
  ForbiddenPredicate p;
  p.arity = k;
  for (std::size_t i = 0; i < k; ++i) {
    p.conjuncts.push_back({i, S, (i + 1) % k, R});
  }
  return p;
}

std::vector<ForbiddenPredicate> async_zoo() {
  // The Lemma 3.3 catalogue: every one of these forces some event to
  // precede itself, so no partial order satisfies it and the
  // specification set is all of X_async.
  return {
      make_predicate(2, {{0, S, 1, S}, {1, S, 0, S}}),
      make_predicate(2, {{0, S, 1, S}, {1, R, 0, S}}),
      make_predicate(2, {{0, R, 1, R}, {1, R, 0, S}}),
      make_predicate(2, {{0, S, 1, R}, {1, R, 0, S}}),
      make_predicate(2, {{0, R, 1, R}, {1, R, 0, R}}),
  };
}

ForbiddenPredicate k_weaker_causal(std::size_t k) {
  // (s1 |> s2) & ... & (s_{k+1} |> s_{k+2}) & (r_{k+2} |> r_1):
  // a chain of k+2 causally ordered sends whose last delivery overtakes
  // the first.  k = 0 degenerates to causal ordering.
  const std::size_t m = k + 2;
  ForbiddenPredicate p;
  p.arity = m;
  for (std::size_t i = 0; i + 1 < m; ++i) {
    p.conjuncts.push_back({i, S, i + 1, S});
  }
  p.conjuncts.push_back({m - 1, R, 0, R});
  return p;
}

ForbiddenPredicate local_forward_flush(int red) {
  ForbiddenPredicate p = fifo();
  p.color_constraints = {{1, red}};
  return p;
}

ForbiddenPredicate global_forward_flush(int red) {
  ForbiddenPredicate p = causal_ordering();
  p.color_constraints = {{1, red}};
  return p;
}

ForbiddenPredicate local_backward_flush(int red) {
  ForbiddenPredicate p = fifo();
  p.color_constraints = {{0, red}};
  return p;
}

CompositeSpec two_way_flush(int red) {
  CompositeSpec spec;
  spec.predicates = {local_forward_flush(red), local_backward_flush(red)};
  return spec;
}

ForbiddenPredicate global_backward_flush(int red) {
  ForbiddenPredicate p = causal_ordering();
  p.color_constraints = {{0, red}};
  return p;
}

CompositeSpec global_two_way_flush(int red) {
  CompositeSpec spec;
  spec.predicates = {global_forward_flush(red),
                     global_backward_flush(red)};
  return spec;
}

ForbiddenPredicate mobile_handoff(int handoff) {
  ForbiddenPredicate p = sync_crown(2);
  p.color_constraints = {{0, handoff}};
  return p;
}

ForbiddenPredicate receive_second_before_first() {
  // The user *wants* r2 |> r1 whenever s1 |> s2; the forbidden pattern is
  // the in-order completion (s1 |> s2) & (r1 |> r2).
  return make_predicate(2, {{0, S, 1, S}, {0, R, 1, R}});
}

ForbiddenPredicate marked_send_order(int first, int second) {
  // Both sends collocated by the process equality, colors
  // distinguishing the two.
  ForbiddenPredicate p = make_predicate(2, {{0, S, 1, S}}, {{0, S, 1, S}},
                                        {{0, first}, {1, second}});
  p.var_names = {"x", "y"};
  return p;
}

CompositeSpec logically_synchronous(std::size_t max_k) {
  CompositeSpec spec;
  for (std::size_t k = 2; k <= max_k; ++k) {
    spec.predicates.push_back(sync_crown(k));
  }
  return spec;
}

std::vector<NamedSpec> spec_zoo() {
  std::vector<NamedSpec> zoo;
  const auto add = [&](std::string name, std::string description,
                       std::string ref, ForbiddenPredicate predicate,
                       ProtocolClass expected) {
    zoo.push_back({std::move(name), std::move(description), std::move(ref),
                   std::move(predicate), expected});
  };

  add("causal (B2)", "causal ordering, defining form", "Lemma 3.2b",
      causal_ordering(), ProtocolClass::kTagged);
  add("causal (B1)", "causal ordering, variant", "Lemma 3.2a",
      causal_ordering_b1(), ProtocolClass::kTagged);
  add("causal (B3)", "causal ordering, variant", "Lemma 3.2c",
      causal_ordering_b3(), ProtocolClass::kTagged);
  add("FIFO", "per-channel ordering", "Section 5", fifo(),
      ProtocolClass::kTagged);

  const auto async_predicates = async_zoo();
  for (std::size_t i = 0; i < async_predicates.size(); ++i) {
    add("async #" + std::to_string(i + 1),
        "unsatisfiable crossing (specification = X_async)",
        "Lemma 3.3" + std::string(1, static_cast<char>('a' + i)),
        async_predicates[i], ProtocolClass::kTagless);
  }

  for (std::size_t k = 2; k <= 5; ++k) {
    add("sync crown k=" + std::to_string(k),
        "no crossing cycle of " + std::to_string(k) + " messages",
        "Lemma 3.1", sync_crown(k), ProtocolClass::kGeneral);
  }

  for (std::size_t k = 1; k <= 3; ++k) {
    add("k-weaker causal k=" + std::to_string(k),
        "out of order by at most " + std::to_string(k) + " messages",
        "Section 5", k_weaker_causal(k), ProtocolClass::kTagged);
  }

  add("local forward flush", "red message flushes its channel",
      "Section 5", local_forward_flush(), ProtocolClass::kTagged);
  add("global forward flush", "red message flushes all channels",
      "Section 5", global_forward_flush(), ProtocolClass::kTagged);
  add("local backward flush", "nothing sent after red overtakes it",
      "F-channels [1]", local_backward_flush(), ProtocolClass::kTagged);
  add("global backward flush", "red is a causal floor on all channels",
      "causal flush [12]", global_backward_flush(),
      ProtocolClass::kTagged);
  add("mobile handoff", "handoff messages cross nothing",
      "Section 5 discussion", mobile_handoff(), ProtocolClass::kGeneral);
  add("receive 2nd before 1st", "deliberately inverted delivery",
      "Section 5 discussion", receive_second_before_first(),
      ProtocolClass::kNotImplementable);
  add("marked send order", "no marked send after a terminal-marked send",
      "monitoring-only example", marked_send_order(),
      ProtocolClass::kNotImplementable);
  return zoo;
}

}  // namespace msgorder
