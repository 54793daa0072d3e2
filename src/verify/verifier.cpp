#include "src/verify/verifier.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "src/checker/violation.hpp"
#include "src/obs/hold_soundness.hpp"
#include "src/protocols/reliable.hpp"
#include "src/verify/intern.hpp"

namespace msgorder {

namespace {

bool contains(const std::vector<VerifyAction>& set,
              const VerifyAction& a) {
  return std::find(set.begin(), set.end(), a) != set.end();
}

/// z ⊆ sleep: the stored exploration already covered at least as much.
bool subset_of(std::span<const VerifyAction> z,
               const std::vector<VerifyAction>& sleep) {
  for (const VerifyAction& a : z) {
    if (!contains(sleep, a)) return false;
  }
  return true;
}

/// The visited set: exact state keys, each with the sleep sets it was
/// explored with (subsumption).  The sleep sets live in one arena, one
/// record per (state, sleep set) chained newest first.
class VisitedSet {
 public:
  /// True when `key` was already explored with a sleep set contained in
  /// `sleep`; otherwise records `sleep` for it.
  bool covered_or_add(std::span<const std::uint32_t> key,
                      const std::vector<VerifyAction>& sleep) {
    // Stored 7 bits a byte, the high bit marking "more": an injective
    // encoding, and most component ids are small, so a stored key takes
    // about a third of its 4-bytes-per-id width.
    packed_.clear();
    for (std::uint32_t v : key) {
      for (; v >= 0x80; v >>= 7) packed_.push_back(static_cast<char>(v | 0x80));
      packed_.push_back(static_cast<char>(v));
    }
    bool inserted = false;
    const std::uint32_t state = keys_.intern(packed_, &inserted);
    if (inserted) newest_.push_back(kNone);
    for (std::uint32_t r = newest_[state]; r != kNone; r = records_[r].older) {
      const Record& rec = records_[r];
      if (subset_of(std::span(arena_).subspan(rec.begin, rec.size), sleep)) {
        return true;
      }
    }
    records_.push_back({static_cast<std::uint32_t>(arena_.size()),
                        static_cast<std::uint32_t>(sleep.size()),
                        newest_[state]});
    newest_[state] = static_cast<std::uint32_t>(records_.size() - 1);
    arena_.insert(arena_.end(), sleep.begin(), sleep.end());
    return false;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  struct Record {
    std::uint32_t begin;
    std::uint32_t size;
    std::uint32_t older;
  };

  Interner keys_;
  std::string packed_;
  /// Per state id: its newest record.
  std::vector<std::uint32_t> newest_;
  std::vector<Record> records_;
  std::vector<VerifyAction> arena_;
};

std::string join(const std::vector<std::string>& parts,
                 std::size_t limit) {
  std::string out;
  for (std::size_t i = 0; i < parts.size() && i < limit; ++i) {
    if (!out.empty()) out += "; ";
    out += parts[i];
  }
  if (parts.size() > limit) out += "; ...";
  return out;
}

struct Frame {
  std::vector<VerifyAction> actions;
  std::vector<VerifyAction> sleep;
  std::size_t next = 0;
};

constexpr int verdict_rank(const std::string& v) {
  if (v == "verified") return 0;
  if (v == "bounded") return 1;
  return 2;  // every counterexample-class verdict dominates
}

}  // namespace

ScenarioResult verify_scenario(const Scenario& scenario,
                               const ProtocolFactory& factory,
                               const CompositeSpec& spec,
                               const VerifyOptions& options) {
  // A lossy channel only makes sense under the reliability layer: the
  // stack under test is wrapped, and the drops the verifier injects
  // must be masked by its retransmissions.
  ProtocolFactory effective = factory;
  if (options.channel_model == ChannelModel::kLossy) {
    effective = ReliableProtocol::wrap(factory, {});
  }
  Execution exec(scenario, effective, options.channel_model,
                 options.max_drops);

  ScenarioResult res;
  res.scenario = scenario.name;

  VisitedSet visited;
  /// Complete user views (history-id tuples) already spec-checked.
  Interner spec_memo;

  bool bounded = false;
  bool state_budget_hit = false;
  bool saw_complete = false;
  bool saw_quiescent_complete = false;
  std::vector<VerifyAction> last_complete_schedule;
  std::optional<VerifyCounterexample> ce;
  /// Set when some protocol instance cannot snapshot or restore its
  /// state: the search cannot key or backtrack, so the stack fails.
  bool unsupported = false;

  std::vector<VerifyAction> schedule;
  /// Frames [0, depth) are the DFS stack; the ones above it are kept
  /// only so their vectors' storage is reused.
  std::vector<Frame> stack;
  std::size_t depth = 0;

  // Inspect the current state, whose sleep set the caller put in
  // stack[depth]; make that frame the top, with an execution checkpoint
  // to rewind to, when the state has successors to explore.  Returns
  // false for leaves (terminal / pruned / budget / unsupported).
  auto enter = [&]() -> bool {
    Frame& frame = stack[depth];
    ++res.states;
    res.max_depth_seen = std::max(res.max_depth_seen, schedule.size());
    if (exec.all_delivered()) {
      saw_complete = true;
      ++res.complete_states;
      last_complete_schedule = schedule;
      if (exec.protocols_quiescent() && !exec.user_packets_in_flight()) {
        saw_quiescent_complete = true;
      }
      bool new_view = false;
      spec_memo.intern(exec.history_ids(), &new_view);
      if (!new_view) {
        ++res.counters.spec_memo_hits;
      } else {
        ++res.counters.spec_checks;
        std::string err;
        const std::optional<UserRun> run = exec.user_run(&err);
        if (!run.has_value()) {
          ce = {"violation", "malformed delivered run: " + err, schedule};
          return false;
        }
        for (const ForbiddenPredicate& predicate : spec.predicates) {
          if (const auto witness = find_violation(*run, predicate)) {
            ce = {"violation",
                  "forbidden " + predicate.to_string() + " with " +
                      witness_to_string(predicate, *witness),
                  schedule};
            return false;
          }
        }
        for (const CountingPredicate& counting : spec.counting) {
          if (exceeds_concurrency(*run, counting)) {
            ce = {"violation", "counting predicate exceeded", schedule};
            return false;
          }
        }
      }
      const std::vector<std::string> unsound =
          hold_soundness_violations(exec.trace(), exec.attribution());
      if (!unsound.empty()) {
        ce = {"hold-unsound", join(unsound, 3), schedule};
        return false;
      }
    }
    exec.enabled(frame.actions);
    if (frame.actions.empty()) {
      if (!exec.all_delivered()) {
        std::ostringstream detail;
        detail << "terminal state with undelivered messages:";
        for (const Message& m : scenario.messages) {
          if (!exec.trace().times(m.id).deliver.has_value()) {
            detail << " x" << m.id;
          }
        }
        ce = {"deadlock", detail.str(), schedule};
        return false;
      }
      ++res.complete_runs;
      if (!exec.protocols_quiescent()) {
        ce = {"control-leak",
              "terminal complete state with non-quiescent protocol "
              "instances (outstanding obligations never discharged)",
              schedule};
        return false;
      }
      return false;
    }
    if (options.max_states != 0 && res.states >= options.max_states) {
      // The --quick budget is a hard stop (the main loop halts), so a
      // budgeted run never burns more than max_states states.
      bounded = true;
      state_budget_hit = true;
      return false;
    }
    if (schedule.size() >= options.max_depth) {
      // Depth, unlike the state budget, prunes only this path: other
      // branches keep exploring (the net for uncached cyclic stacks).
      bounded = true;
      return false;
    }
    if (options.state_cache) {
      std::span<const std::uint32_t> key;
      if (!exec.state_key(&key)) {
        unsupported = true;
        return false;
      }
      if (visited.covered_or_add(key, frame.sleep)) return false;
    }
    if (!exec.push_checkpoint()) {
      unsupported = true;
      return false;
    }
    frame.next = 0;
    ++depth;
    return true;
  };

  stack.emplace_back();
  enter();
  while (depth > 0 && !ce.has_value() && !state_budget_hit &&
         !unsupported) {
    if (stack.size() == depth) stack.emplace_back();
    Frame& f = stack[depth - 1];
    if (f.next >= f.actions.size()) {
      --depth;
      exec.pop_checkpoint();
      if (!schedule.empty()) {
        const VerifyAction last = schedule.back();
        schedule.pop_back();
        if (depth > 0) stack[depth - 1].sleep.push_back(last);
      }
      continue;
    }
    const VerifyAction a = f.actions[f.next++];
    if (options.por && contains(f.sleep, a)) continue;
    std::vector<VerifyAction>& child_sleep = stack[depth].sleep;
    child_sleep.clear();
    if (options.por) {
      for (const VerifyAction& b : f.sleep) {
        if (independent_actions(a, b)) child_sleep.push_back(b);
      }
    }
    // Back to this frame's state, unless `a` is its first child.
    if (!exec.rewind()) {
      unsupported = true;
      break;
    }
    exec.apply(a);
    ++res.transitions;
    schedule.push_back(a);
    if (!enter()) {
      if (ce.has_value() || unsupported) break;
      schedule.pop_back();
      f.sleep.push_back(a);
    }
  }

  const Execution::KeyStats keys = exec.key_stats();
  res.counters.interned_hosts = keys.interned_hosts;
  res.counters.interned_channels = keys.interned_channels;
  res.counters.interned_packets = keys.interned_packets;
  res.counters.interned_history_nodes = keys.interned_history_nodes;
  res.counters.reinterned = keys.reinterned;
  res.counters.restored_hosts = exec.restored_hosts();

  if (unsupported) {
    res.verdict = "unsupported";
    res.detail =
        "a protocol instance does not implement snapshot() and "
        "restore(), which the verifier needs to key and to backtrack "
        "states";
  } else if (ce.has_value()) {
    res.verdict = ce->property;
    res.detail = ce->detail;
    res.counterexample = std::move(ce);
  } else if (bounded) {
    res.verdict = "bounded";
    res.detail = "exploration budget reached (" +
                 std::to_string(res.states) +
                 " states); no violation found, NOT a proof";
  } else if (!saw_complete) {
    res.verdict = "no-completion";
    res.detail = "no reachable state delivers every message";
  } else if (!saw_quiescent_complete) {
    res.verdict = "control-leak";
    res.detail =
        "no reachable complete state is quiescent with empty channels";
    res.counterexample = VerifyCounterexample{
        "control-leak", res.detail, last_complete_schedule};
  } else {
    res.verdict = "verified";
  }
  return res;
}

StackReport verify_stack(const std::string& stack_name,
                         const ProtocolFactory& factory,
                         const CompositeSpec& spec,
                         const std::vector<Scenario>& scenarios,
                         const VerifyOptions& options) {
  StackReport report;
  report.stack = stack_name;
  report.verdict = "verified";
  for (const Scenario& scenario : scenarios) {
    ScenarioResult result =
        verify_scenario(scenario, factory, spec, options);
    report.states_total += result.states;
    report.transitions_total += result.transitions;
    report.counters_total += result.counters;
    if (verdict_rank(result.verdict) > verdict_rank(report.verdict)) {
      report.verdict = result.verdict;
    }
    const bool stop =
        result.counterexample.has_value() || result.verdict == "unsupported";
    report.scenarios.push_back(std::move(result));
    if (stop) break;  // first counterexample wins
  }
  return report;
}

}  // namespace msgorder
