// Bitset-pruned witness search with nogood recording and chain
// dominance: the engine behind both the online monitor and the offline
// oracle.
//
// Candidate bitsets.  Per quantified variable the engine materializes a
// packed candidate bitset and intersects it word-parallel:
//   * statically (once per spec x universe): color constraints,
//     same-variable process equalities, and per-process sender/receiver
//     masks for cross-variable process equalities;
//   * per binding: a conjunct  x_v.p |> x_w.q  with w already bound
//     restricts v's candidates to a kind-slice of an ancestor row
//     (v on the left) or a descendant row (v on the right) of the
//     causality matrix — one AND per 64 messages.
// The DFS binds the pinned variable first, then the others in ascending
// index order, and enumerates surviving candidates in ascending message
// order: the lexicographic order of the seed scan.
//
// Nogoods.  Whether the subtree below DFS level i has a solution depends
// only on sep(i) — the already-bound variables with a pair filter (a
// conjunct or a cross-variable process equality) into level i or later
// — and on which messages the distinct-message rule excludes.  The plan
// (computed once per spec and pin in the constructor) names key(i), the
// latest-bound unpinned variable of sep(i).  When level i fails, the
// engine records "x_key(i) = this message is dead for level i" in a
// per-level message bitset (a level without a key records one flag);
// rebinding any other variable of sep(i) clears the record.  The key's
// level drops dead messages from its candidates before enumerating, and
// a level between the key and i stops its loop as soon as the record
// covers the current key.  On the sync crowns this turns the cubic
// crown-4 search into O(n^2) DFS nodes.
//
// Distinctness.  Variables bound above level i but outside sep(i) still
// reach the subtree through the distinct-message rule: a different
// value there could free a candidate the subtree needed.  So a failure
// is recorded only if, inside the subtree, the rule removed no candidate
// equal to such a variable's value.  A level keeps records only if some
// unpinned variable bound above it lies outside sep(i) — otherwise a
// record could never be reused — so arity-2 specs do no bookkeeping.
// Variable masks are 64-bit; specs of arity > 64 record nothing.
//
// Chain dominance.  Every process line is a |>-chain, so a level's
// later constraints get monotonically harder to meet along a line, in
// one direction or the other.  The plan marks level v
// *dominance-eligible* when it has a later-bound partner and every pair
// filter a later-bound variable holds on v has one direction and one
// endpoint kind k:
//   * source form, v.k |> w.q: desc(b.k) is a subset of desc(a.k)
//     whenever a.k |> b.k, so once candidate a fails, every b in a's
//     descendant row (k-slice) fails too;
//   * target form, w.q |> v.k: the mirror image over ancestor rows.
// A cross-variable process equality from a later variable is allowed
// when it names v.k (the prune then keeps to a's process line at k) and
// makes v ineligible when it names the other endpoint.  The argument
// breaks only if some solution under b binds a later variable to a
// itself, which the distinct-message rule forbids under a.  So v
// watches its own value like an outside variable: a failed a prunes
// only if, inside its subtree, the distinct rule never removed a from a
// pair-filtered candidate set.  A failure proven this way also holds
// with that rule relaxed for v, so the pruned candidates fail in every
// sense the enclosing records and prunes rely on.
//
// Probe order.  Source levels enumerate ascending as usual: an early
// failure removes its descendants before they are reached.  On a target
// level ascending order would try the dominated candidates first, so it
// first probes descending, pruning on each failure.  If every probe
// fails, the level fails.  On the first success the engine releases the
// bindings the successful subtree left, then runs the normal ascending
// pass over the surviving candidates.
//
// First witness.  A record only ever skips a subtree that has already
// failed in an equivalent context, and a dominance prune removes only
// candidates proven to fail, so the ascending pass visits the same
// successful prefix and returns the *identical* lexicographically-first
// witness as the seed scan (the *_naive references stay the oracles).
//
// All scratch lives in the engine, so a long-lived caller (the online
// monitor) performs zero allocations per query.
#pragma once

#include <cstdint>
#include <vector>

#include "src/poset/event.hpp"
#include "src/spec/predicate.hpp"
#include "src/util/bitmatrix.hpp"

namespace msgorder {

class WitnessEngine {
 public:
  /// Causality context for one query.  Both matrices are indexed by the
  /// packed user-event index 2*msg + (deliver ? 1 : 0):
  ///   descendants->get(e, d)  iff  e |> d
  ///   ancestors->get(e, a)    iff  a |> e
  /// (for a closed UserRun poset these are the matrix and its
  /// transpose; the monitor maintains both incrementally).  The packed
  /// presence bitsets restrict bindings to messages whose send /
  /// delivery has happened; nullptr means "all present" (complete runs).
  struct View {
    const BitMatrix* descendants = nullptr;
    const BitMatrix* ancestors = nullptr;
    const std::uint64_t* present_send = nullptr;
    const std::uint64_t* present_deliver = nullptr;
  };

  /// Search instrumentation (ISSUE 4): populated only when attached via
  /// set_stats — the hot path pays a single pointer test per DFS level
  /// when disabled (the default).
  struct Stats {
    std::uint64_t searches = 0;        // search / search_pinned calls
    std::uint64_t witnesses = 0;       // searches that found an assignment
    std::uint64_t dfs_nodes = 0;       // candidate sets materialized
    std::uint64_t words_scanned = 0;   // 64-bit candidate words touched
    std::uint64_t candidates_initial = 0;    // population before pair filters
    std::uint64_t candidates_surviving = 0;  // population after pair filters
    std::uint64_t enumerated = 0;      // bindings actually tried by the DFS
    std::uint64_t nogoods = 0;         // failed subtrees recorded
    std::uint64_t nogood_prunes = 0;   // subtrees skipped by a record
    /// Candidates refuted by a failed candidate earlier on their
    /// |>-chain (both forms), and the part of them on target levels.
    std::uint64_t dominance_prunes = 0;
    std::uint64_t dominance_target_prunes = 0;
    /// Failed candidates whose prune a self-hit blocked.
    std::uint64_t dominance_blocked = 0;

    /// Fraction of statically feasible candidates the word-parallel
    /// pair filters eliminated before enumeration.
    double prune_rate() const {
      return candidates_initial == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(candidates_surviving) /
                             static_cast<double>(candidates_initial);
    }
  };

  WitnessEngine(ForbiddenPredicate spec, std::vector<Message> universe);

  const ForbiddenPredicate& spec() const { return spec_; }
  const std::vector<Message>& universe() const { return universe_; }

  /// Attach (or detach with nullptr) a stats sink owned by the caller.
  void set_stats(Stats* stats) { stats_ = stats; }
  Stats* stats() const { return stats_; }

  /// Unary feasibility of binding `msg` to `var`: color constraints,
  /// same-variable process equalities, presence of every event kind the
  /// conjuncts require of `var`, and same-variable conjuncts.  The
  /// monitor's per-event early-out: if the newly delivered message fails
  /// this for a pin, the whole pinned search is skipped.
  bool unary_ok(const View& view, std::size_t var, MessageId msg) const;

  /// Find the lexicographically-first satisfying assignment with
  /// variable `pinned_var` fixed to `pinned_msg` (and excluded from the
  /// other variables).  Returns false if none; on success `out` holds
  /// the full assignment.
  bool search_pinned(const View& view, std::size_t pinned_var,
                     MessageId pinned_msg, std::vector<MessageId>& out);

  /// Unpinned variant (the offline oracle's entry point).
  bool search(const View& view, std::vector<MessageId>& out);

 private:
  static std::size_t index(MessageId m, UserEventKind k) {
    return 2 * static_cast<std::size_t>(m) +
           (k == UserEventKind::kDeliver ? 1 : 0);
  }

  /// One cross-variable constraint contributing a candidate filter for
  /// `var` once `other` is bound.
  struct PairFilter {
    enum class Type : std::uint8_t {
      kVarOnLhs,     // x_var.var_kind |> x_other.other_kind
      kVarOnRhs,     // x_other.other_kind |> x_var.var_kind
      kSameProcess,  // process(x_var.var_kind) == process(x_other.other_kind)
    };
    Type type;
    UserEventKind var_kind;
    UserEventKind other_kind;
    std::size_t other;
  };

  /// Static per-variable data.
  struct VarInfo {
    std::vector<PairFilter> filters;
    std::vector<Conjunct> self_conjuncts;  // lhs == rhs == this var
    std::uint64_t partners = 0;  // vars sharing a pair filter (arity <= 64)
    bool needs_send = false;
    bool needs_deliver = false;
  };

  /// What the DFS level binding one variable does with nogoods, for one
  /// pin.  Every mask is over variable indices.
  struct LevelPlan {
    static constexpr std::size_t kNoKey = ~std::size_t{0};
    /// Unpinned variables bound above this level but outside its sep
    /// set; nonzero iff this level records its failures.
    std::uint64_t outside = 0;
    /// The variable indexing this level's records (kNoKey: one flag).
    std::size_t key = kNoKey;
    /// Bound variables whose values, if the distinct-message rule
    /// removes them from this level's candidates, block the record of
    /// an enclosing (or this) level.
    std::uint64_t watch = 0;
    /// Recording levels keyed by this variable: their dead messages
    /// leave this level's candidates.
    std::uint64_t keyed = 0;
    /// Recording levels whose records binding this variable clears.
    std::uint64_t clears = 0;
    /// Deeper recording levels keyed above this level (or keyless): once
    /// one covers the current binding, every sibling left fails too.
    std::uint64_t stops = 0;
    /// Chain dominance: which rows a failed candidate prunes, over which
    /// endpoint kind, and whether only on its own process line.
    enum class Dominance : std::uint8_t { kNone, kSource, kTarget };
    Dominance dominance = Dominance::kNone;
    UserEventKind dominance_kind = UserEventKind::kSend;
    bool dominance_line = false;
  };

  /// What one binding attempt at a level came to.
  enum class Probe : std::uint8_t { kSkipped, kFailed, kStopped, kFound };

  std::uint64_t* cand_row(std::size_t var) {
    return cand_arena_.data() + var * msg_words_;
  }
  std::uint64_t* dead_row(std::size_t var) {
    return cand_arena_.data() + (spec_.arity + var) * msg_words_;
  }
  const std::uint64_t* static_row(std::size_t var) const {
    return static_arena_.data() + var * msg_words_;
  }

  void build_plans();
  void begin_search(std::size_t pinned_var);
  bool recorded_dead(std::uint64_t levels,
                     const std::vector<MessageId>& out);
  bool self_conjuncts_ok(const View& view, std::size_t var,
                         MessageId msg) const;
  void and_kind_slice(std::uint64_t* cand, const std::uint64_t* event_row,
                      std::size_t event_words, UserEventKind kind) const;
  void prune_dominated(const View& view, const LevelPlan& level,
                       MessageId failed, std::uint64_t* cand);
  Probe probe(const View& view, std::size_t var, std::size_t pinned_var,
              MessageId m, std::vector<MessageId>& out);
  bool dfs(const View& view, std::size_t var, std::size_t pinned_var,
           std::vector<MessageId>& out);

  ForbiddenPredicate spec_;
  std::vector<Message> universe_;
  std::size_t msg_words_ = 0;

  // --- static, computed once per (spec, universe) ---
  std::vector<std::uint64_t> static_arena_;   // arity x msg_words_
  std::vector<std::uint64_t> by_src_arena_;   // process x msg_words_
  std::vector<std::uint64_t> by_dst_arena_;   // process x msg_words_
  std::vector<VarInfo> vars_;
  std::vector<LevelPlan> plans_;  // (arity + 1) pins x arity vars

  // --- reusable query scratch ---
  /// arity candidate rows, then arity dead rows (message bitsets of the
  /// recording levels, indexed by their key's value).
  std::vector<std::uint64_t> cand_arena_;
  std::vector<std::uint64_t> used_words_;
  const LevelPlan* plan_ = nullptr;  // the current search's pin row
  std::uint64_t dead_flags_ = 0;     // failed keyless recording levels
  /// Watched vars the distinct rule removed (a dominance level's own
  /// bit is its self-hit).
  std::uint64_t hits_ = 0;

  Stats* stats_ = nullptr;  // nullptr = instrumentation off (default)
};

}  // namespace msgorder
