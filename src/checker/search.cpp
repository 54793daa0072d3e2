#include "src/checker/search.hpp"

#include <algorithm>
#include <bit>

namespace msgorder {

namespace {

constexpr bool bit_set(const std::uint64_t* words, std::size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}

/// Word `w` of the message bitset holding the `phase` events (0: sends,
/// 1: deliveries) of a packed event row.
std::uint64_t kind_slice(const std::uint64_t* event_row,
                         std::size_t event_words, unsigned phase,
                         std::size_t w) {
  const std::uint64_t lo = 2 * w < event_words ? event_row[2 * w] : 0;
  const std::uint64_t hi = 2 * w + 1 < event_words ? event_row[2 * w + 1] : 0;
  return compress_stride2(lo, phase) | (compress_stride2(hi, phase) << 32);
}

}  // namespace

WitnessEngine::WitnessEngine(ForbiddenPredicate spec,
                             std::vector<Message> universe)
    : spec_(std::move(spec)),
      universe_(std::move(universe)),
      msg_words_((universe_.size() + 63) / 64) {
  const std::size_t arity = spec_.arity;
  const std::size_t n = universe_.size();

  std::size_t n_processes = 0;
  for (const Message& m : universe_) {
    n_processes = std::max({n_processes, static_cast<std::size_t>(m.src) + 1,
                            static_cast<std::size_t>(m.dst) + 1});
  }
  by_src_arena_.assign(n_processes * msg_words_, 0);
  by_dst_arena_.assign(n_processes * msg_words_, 0);
  for (MessageId m = 0; m < n; ++m) {
    by_src_arena_[universe_[m].src * msg_words_ + (m >> 6)] |=
        1ULL << (m & 63);
    by_dst_arena_[universe_[m].dst * msg_words_ + (m >> 6)] |=
        1ULL << (m & 63);
  }

  // Static per-variable candidates: start from "every message", then
  // intersect the attribute constraints that do not depend on any other
  // binding (colors, same-variable process equalities).
  static_arena_.assign(arity * msg_words_, ~0ULL);
  if (msg_words_ > 0 && (n & 63) != 0) {
    const std::uint64_t tail = (1ULL << (n & 63)) - 1;
    for (std::size_t v = 0; v < arity; ++v) {
      static_arena_[v * msg_words_ + msg_words_ - 1] &= tail;
    }
  }
  const auto clear_static = [&](std::size_t v, MessageId m) {
    static_arena_[v * msg_words_ + (m >> 6)] &= ~(1ULL << (m & 63));
  };
  for (const ColorConstraint& cc : spec_.color_constraints) {
    for (MessageId m = 0; m < n; ++m) {
      if (universe_[m].color != cc.color) clear_static(cc.var, m);
    }
  }

  vars_.resize(arity);
  const auto note_kind = [&](std::size_t v, UserEventKind k) {
    (k == UserEventKind::kSend ? vars_[v].needs_send
                               : vars_[v].needs_deliver) = true;
  };
  const auto add_filter = [&](std::size_t v, PairFilter f) {
    vars_[v].filters.push_back(f);
    if (arity <= 64) vars_[v].partners |= 1ULL << f.other;
  };
  for (const Conjunct& c : spec_.conjuncts) {
    note_kind(c.lhs, c.p);
    note_kind(c.rhs, c.q);
    if (c.lhs == c.rhs) {
      vars_[c.lhs].self_conjuncts.push_back(c);
      continue;
    }
    add_filter(c.lhs, {PairFilter::Type::kVarOnLhs, c.p, c.q, c.rhs});
    add_filter(c.rhs, {PairFilter::Type::kVarOnRhs, c.q, c.p, c.lhs});
  }
  for (const ProcessEquality& pe : spec_.process_constraints) {
    if (pe.var_a == pe.var_b) {
      // process(x.kind_a) == process(x.kind_b): static per message.
      for (MessageId m = 0; m < n; ++m) {
        const ProcessId a = pe.kind_a == UserEventKind::kSend
                                ? universe_[m].src
                                : universe_[m].dst;
        const ProcessId b = pe.kind_b == UserEventKind::kSend
                                ? universe_[m].src
                                : universe_[m].dst;
        if (a != b) clear_static(pe.var_a, m);
      }
      continue;
    }
    add_filter(pe.var_a, {PairFilter::Type::kSameProcess, pe.kind_a,
                          pe.kind_b, pe.var_b});
    add_filter(pe.var_b, {PairFilter::Type::kSameProcess, pe.kind_b,
                          pe.kind_a, pe.var_a});
  }
  build_plans();

  cand_arena_.assign(2 * arity * msg_words_, 0);
  used_words_.assign(msg_words_, 0);
}

void WitnessEngine::build_plans() {
  const std::size_t arity = spec_.arity;
  plans_.assign((arity + 1) * arity, LevelPlan{});
  if (arity > 64) return;  // masks would truncate: record nothing
  for (std::size_t pin = 0; pin <= arity; ++pin) {
    LevelPlan* plan = plans_.data() + pin * arity;
    const std::uint64_t pin_bit = pin < arity ? 1ULL << pin : 0;
    // Binding order: the pin, then ascending index.
    std::uint64_t bound = pin_bit;
    for (std::size_t v = 0; v < arity; ++v) {
      if (v == pin) continue;
      std::uint64_t sep = 0;
      for (std::uint64_t us = bound; us != 0; us &= us - 1) {
        const auto u = static_cast<std::size_t>(std::countr_zero(us));
        if ((vars_[u].partners & ~bound) != 0) sep |= 1ULL << u;
      }
      const std::uint64_t outside = bound & ~sep & ~pin_bit;
      const std::uint64_t keys = sep & ~pin_bit;
      bound |= 1ULL << v;
      if (outside == 0) continue;  // no record could ever be reused
      LevelPlan& level = plan[v];
      level.outside = outside;
      // Levels after the key (all of them when keyless) stop on a hit.
      std::uint64_t stoppers = outside;
      if (keys != 0) {
        level.key = static_cast<std::size_t>(63 - std::countl_zero(keys));
        plan[level.key].keyed |= 1ULL << v;
        for (std::uint64_t us = keys & ~(1ULL << level.key); us != 0;
             us &= us - 1) {
          plan[std::countr_zero(us)].clears |= 1ULL << v;
        }
        stoppers &= ~((2ULL << level.key) - 1);
      }
      for (std::uint64_t us = stoppers; us != 0; us &= us - 1) {
        plan[std::countr_zero(us)].stops |= 1ULL << v;
      }
      for (std::size_t w = v; w < arity; ++w) {
        if (w != pin) plan[w].watch |= outside;
      }
    }
    // Chain dominance: every filter a later-bound variable holds on v
    // must share one direction and one endpoint kind; a process equality
    // may name that endpoint only.
    using Dominance = LevelPlan::Dominance;
    for (std::size_t v = 0; v < arity; ++v) {
      if (v == pin) continue;
      LevelPlan& level = plan[v];
      bool eligible = true;
      for (const PairFilter& f : vars_[v].filters) {
        if (f.other < v || f.other == pin ||
            f.type == PairFilter::Type::kSameProcess) {
          continue;
        }
        const Dominance form = f.type == PairFilter::Type::kVarOnLhs
                                   ? Dominance::kSource
                                   : Dominance::kTarget;
        if (level.dominance == Dominance::kNone) {
          level.dominance = form;
          level.dominance_kind = f.var_kind;
        }
        eligible = eligible && level.dominance == form &&
                   level.dominance_kind == f.var_kind;
      }
      for (const PairFilter& f : vars_[v].filters) {
        if (f.other < v || f.other == pin ||
            f.type != PairFilter::Type::kSameProcess) {
          continue;
        }
        level.dominance_line = true;
        eligible = eligible && f.var_kind == level.dominance_kind;
      }
      if (!eligible || level.dominance == Dominance::kNone) {
        level.dominance = Dominance::kNone;
        level.dominance_line = false;
        continue;
      }
      // v watches its own value below it: a self-hit blocks the prune.
      for (std::size_t w = v + 1; w < arity; ++w) {
        if (w != pin) plan[w].watch |= 1ULL << v;
      }
    }
  }
}

void WitnessEngine::and_kind_slice(std::uint64_t* cand,
                                   const std::uint64_t* event_row,
                                   std::size_t event_words,
                                   UserEventKind kind) const {
  const unsigned phase = kind == UserEventKind::kDeliver ? 1u : 0u;
  for (std::size_t w = 0; w < msg_words_; ++w) {
    cand[w] &= kind_slice(event_row, event_words, phase, w);
  }
}

void WitnessEngine::prune_dominated(const View& view, const LevelPlan& level,
                                    MessageId failed, std::uint64_t* cand) {
  // Source form: every candidate whose k-event `failed` precedes; target
  // form: every candidate whose k-event precedes it.
  const bool source = level.dominance == LevelPlan::Dominance::kSource;
  const bool send = level.dominance_kind == UserEventKind::kSend;
  const BitMatrix& rows = source ? *view.descendants : *view.ancestors;
  const std::uint64_t* row = rows.row_data(index(failed, level.dominance_kind));
  const std::size_t event_words = rows.words_per_row();
  const unsigned phase = send ? 0u : 1u;
  const std::uint64_t* line = nullptr;
  if (level.dominance_line) {
    const Message& mf = universe_[failed];
    line = send ? by_src_arena_.data() + mf.src * msg_words_
                : by_dst_arena_.data() + mf.dst * msg_words_;
  }
  std::uint64_t pruned = 0;
  for (std::size_t w = 0; w < msg_words_; ++w) {
    std::uint64_t slice = kind_slice(row, event_words, phase, w);
    if (line != nullptr) slice &= line[w];
    if (stats_ != nullptr) {
      pruned += static_cast<std::uint64_t>(std::popcount(cand[w] & slice));
    }
    cand[w] &= ~slice;
  }
  cand[failed >> 6] &= ~(1ULL << (failed & 63));
  if (stats_ != nullptr) {
    stats_->dominance_prunes += pruned;
    if (!source) stats_->dominance_target_prunes += pruned;
  }
}

bool WitnessEngine::self_conjuncts_ok(const View& view, std::size_t var,
                                      MessageId msg) const {
  for (const Conjunct& c : vars_[var].self_conjuncts) {
    if (!view.descendants->get(index(msg, c.p), index(msg, c.q))) {
      return false;
    }
  }
  return true;
}

bool WitnessEngine::unary_ok(const View& view, std::size_t var,
                             MessageId msg) const {
  if (!bit_set(static_row(var), msg)) return false;
  if (vars_[var].needs_send && view.present_send != nullptr &&
      !bit_set(view.present_send, msg)) {
    return false;
  }
  if (vars_[var].needs_deliver && view.present_deliver != nullptr &&
      !bit_set(view.present_deliver, msg)) {
    return false;
  }
  return self_conjuncts_ok(view, var, msg);
}

bool WitnessEngine::recorded_dead(std::uint64_t levels,
                                  const std::vector<MessageId>& out) {
  for (; levels != 0; levels &= levels - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(levels));
    const std::size_t key = plan_[i].key;
    if (key == LevelPlan::kNoKey ? ((dead_flags_ >> i) & 1u) != 0
                                 : bit_set(dead_row(i), out[key])) {
      return true;
    }
  }
  return false;
}

WitnessEngine::Probe WitnessEngine::probe(const View& view, std::size_t var,
                                          std::size_t pinned_var,
                                          MessageId m,
                                          std::vector<MessageId>& out) {
  const LevelPlan& level = plan_[var];
  if (stats_ != nullptr) ++stats_->enumerated;
  if (!vars_[var].self_conjuncts.empty() && !self_conjuncts_ok(view, var, m)) {
    return Probe::kSkipped;
  }
  out[var] = m;
  used_words_[m >> 6] |= 1ULL << (m & 63);
  for (std::uint64_t ls = level.clears; ls != 0; ls &= ls - 1) {
    std::fill_n(dead_row(std::countr_zero(ls)), msg_words_, 0);
  }
  const bool dominance = level.dominance != LevelPlan::Dominance::kNone;
  const std::uint64_t self = dominance ? 1ULL << var : 0;
  hits_ &= ~self;
  if (dfs(view, var + 1, pinned_var, out)) return Probe::kFound;
  used_words_[m >> 6] &= ~(1ULL << (m & 63));
  if (level.stops != 0 && recorded_dead(level.stops, out)) {
    if (stats_ != nullptr) ++stats_->nogood_prunes;
    return Probe::kStopped;
  }
  if (dominance) {
    if ((hits_ & self) == 0) {
      prune_dominated(view, level, m, cand_row(var));
    } else if (stats_ != nullptr) {
      ++stats_->dominance_blocked;
    }
  }
  return Probe::kFailed;
}

bool WitnessEngine::dfs(const View& view, std::size_t var,
                        std::size_t pinned_var,
                        std::vector<MessageId>& out) {
  const std::size_t arity = spec_.arity;
  if (var == arity) return true;
  if (var == pinned_var) return dfs(view, var + 1, pinned_var, out);

  const VarInfo& info = vars_[var];
  const LevelPlan& level = plan_[var];
  // A recording level collects its own subtree's distinctness hits.
  const std::uint64_t outer_hits = hits_;
  if (level.outside != 0) hits_ = 0;
  // Under a recording or dominance level the distinct-message rule
  // applies after the pair filters, so the level sees which bound values
  // it removed.
  const bool watch = level.watch != 0;

  std::uint64_t* cand = cand_row(var);
  const std::uint64_t* stat = static_row(var);
  for (std::size_t w = 0; w < msg_words_; ++w) {
    std::uint64_t c = stat[w];
    if (!watch) c &= ~used_words_[w];
    if (info.needs_send && view.present_send != nullptr) {
      c &= view.present_send[w];
    }
    if (info.needs_deliver && view.present_deliver != nullptr) {
      c &= view.present_deliver[w];
    }
    cand[w] = c;
  }
  if (stats_ != nullptr) {
    ++stats_->dfs_nodes;
    stats_->words_scanned += msg_words_;
    for (std::size_t w = 0; w < msg_words_; ++w) {
      stats_->candidates_initial += static_cast<std::uint64_t>(
          std::popcount(watch ? cand[w] & ~used_words_[w] : cand[w]));
    }
  }
  for (const PairFilter& f : info.filters) {
    if (f.other >= var && f.other != pinned_var) continue;  // not bound yet
    const MessageId om = out[f.other];
    switch (f.type) {
      case PairFilter::Type::kVarOnLhs:
        // x_var.var_kind |> x_om.other_kind: the candidate's event must
        // be an ancestor of the bound event.
        and_kind_slice(cand,
                       view.ancestors->row_data(index(om, f.other_kind)),
                       view.ancestors->words_per_row(), f.var_kind);
        break;
      case PairFilter::Type::kVarOnRhs:
        // x_om.other_kind |> x_var.var_kind: a descendant of it.
        and_kind_slice(cand,
                       view.descendants->row_data(index(om, f.other_kind)),
                       view.descendants->words_per_row(), f.var_kind);
        break;
      case PairFilter::Type::kSameProcess: {
        const Message& mo = universe_[om];
        const ProcessId p =
            f.other_kind == UserEventKind::kSend ? mo.src : mo.dst;
        const std::uint64_t* mask =
            (f.var_kind == UserEventKind::kSend ? by_src_arena_
                                                : by_dst_arena_)
                .data() +
            static_cast<std::size_t>(p) * msg_words_;
        for (std::size_t w = 0; w < msg_words_; ++w) cand[w] &= mask[w];
        break;
      }
    }
  }
  if (watch) {
    for (std::uint64_t us = level.watch; us != 0; us &= us - 1) {
      const auto u = static_cast<std::size_t>(std::countr_zero(us));
      if (bit_set(cand, out[u])) hits_ |= 1ULL << u;
    }
    for (std::size_t w = 0; w < msg_words_; ++w) cand[w] &= ~used_words_[w];
  }

  if (stats_ != nullptr) {
    stats_->words_scanned +=
        static_cast<std::uint64_t>(info.filters.size()) * msg_words_;
    for (std::size_t w = 0; w < msg_words_; ++w) {
      stats_->candidates_surviving +=
          static_cast<std::uint64_t>(std::popcount(cand[w]));
    }
  }
  // Messages a deeper level has recorded as dead for this key.
  for (std::uint64_t ls = level.keyed; ls != 0; ls &= ls - 1) {
    const std::uint64_t* dead = dead_row(std::countr_zero(ls));
    for (std::size_t w = 0; w < msg_words_; ++w) {
      if (stats_ != nullptr) {
        stats_->nogood_prunes +=
            static_cast<std::uint64_t>(std::popcount(cand[w] & dead[w]));
      }
      cand[w] &= ~dead[w];
    }
  }

  bool done = false;
  if (level.dominance == LevelPlan::Dominance::kTarget) {
    // Ascending order would try the dominated candidates first, so probe
    // descending: each failure prunes the candidates |>-before it.
    bool found = false;
    for (std::size_t i = msg_words_; i > 0 && !found && !done; --i) {
      const std::size_t w = i - 1;
      while (cand[w] != 0) {
        const auto m = static_cast<MessageId>(
            64 * w + 63 - static_cast<std::size_t>(std::countl_zero(cand[w])));
        const Probe p = probe(view, var, pinned_var, m, out);
        found = p == Probe::kFound;
        done = p == Probe::kStopped;
        if (found || done) break;
        cand[w] &= ~(1ULL << (m & 63));
      }
    }
    if (found) {
      // Release the successful subtree's bindings; the ascending pass
      // over the survivors returns the lexicographically-first witness.
      for (std::size_t u = var; u < arity; ++u) {
        if (u != pinned_var) {
          used_words_[out[u] >> 6] &= ~(1ULL << (out[u] & 63));
        }
      }
    }
    done = !found;
  }
  for (std::size_t w = 0; w < msg_words_ && !done; ++w) {
    std::uint64_t bits = cand[w];
    while (bits != 0) {
      const auto m = static_cast<MessageId>(
          64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const Probe p = probe(view, var, pinned_var, m, out);
      if (p == Probe::kFound) return true;
      if (p == Probe::kStopped) {
        done = true;
        break;
      }
      bits &= cand[w];  // a failure may have pruned later candidates
    }
  }
  if (level.outside != 0) {
    if ((hits_ & level.outside) == 0) {
      if (level.key == LevelPlan::kNoKey) {
        dead_flags_ |= 1ULL << var;
      } else {
        const MessageId k = out[level.key];
        dead_row(var)[k >> 6] |= 1ULL << (k & 63);
      }
      if (stats_ != nullptr) ++stats_->nogoods;
    }
    hits_ |= outer_hits;
  }
  return false;
}

void WitnessEngine::begin_search(std::size_t pinned_var) {
  const std::size_t arity = spec_.arity;
  plan_ = plans_.data() + pinned_var * arity;
  std::fill(used_words_.begin(), used_words_.end(), 0);
  for (std::size_t v = 0; v < arity; ++v) {
    if (plan_[v].outside != 0) std::fill_n(dead_row(v), msg_words_, 0);
  }
  dead_flags_ = 0;
  hits_ = 0;
}

bool WitnessEngine::search_pinned(const View& view, std::size_t pinned_var,
                                  MessageId pinned_msg,
                                  std::vector<MessageId>& out) {
  const std::size_t arity = spec_.arity;
  if (arity == 0 || arity > universe_.size()) return false;
  if (stats_ != nullptr) ++stats_->searches;
  if (!unary_ok(view, pinned_var, pinned_msg)) return false;
  out.assign(arity, 0);
  out[pinned_var] = pinned_msg;
  begin_search(pinned_var);
  used_words_[pinned_msg >> 6] |= 1ULL << (pinned_msg & 63);
  const bool found = dfs(view, 0, pinned_var, out);
  if (found && stats_ != nullptr) ++stats_->witnesses;
  return found;
}

bool WitnessEngine::search(const View& view, std::vector<MessageId>& out) {
  const std::size_t arity = spec_.arity;
  if (arity == 0 || arity > universe_.size()) return false;
  if (stats_ != nullptr) ++stats_->searches;
  out.assign(arity, 0);
  begin_search(arity);
  const bool found = dfs(view, 0, arity, out);
  if (found && stats_ != nullptr) ++stats_->witnesses;
  return found;
}

}  // namespace msgorder
