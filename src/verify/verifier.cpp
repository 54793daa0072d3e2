#include "src/verify/verifier.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/checker/violation.hpp"
#include "src/obs/hold_soundness.hpp"
#include "src/protocols/reliable.hpp"

namespace msgorder {

namespace {

bool contains(const std::vector<VerifyAction>& set,
              const VerifyAction& a) {
  return std::find(set.begin(), set.end(), a) != set.end();
}

/// z ⊆ sleep: the stored exploration already covered at least as much.
bool subset_of(const std::vector<VerifyAction>& z,
               const std::vector<VerifyAction>& sleep) {
  for (const VerifyAction& a : z) {
    if (!contains(sleep, a)) return false;
  }
  return true;
}

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

  bool caching = options.state_cache;
  /// fingerprint -> sleep sets it was explored with (subsumption).
  std::unordered_map<std::string, std::vector<std::vector<VerifyAction>>>
      visited;
  /// Histories already proven to satisfy the spec.
  std::unordered_set<std::string> spec_ok;

  bool bounded = false;
  bool state_budget_hit = false;
  bool saw_complete = false;
  bool saw_quiescent_complete = false;
  std::vector<VerifyAction> last_complete_schedule;
  std::optional<VerifyCounterexample> ce;

  std::vector<VerifyAction> schedule;
  std::vector<Frame> stack;
  /// Key buffers reused across states (fingerprint, spec-memo key).
  std::string fp;
  std::string hkey;
  /// `exec` is not at the state `schedule` leads to: a child was
  /// explored since.  Backtracking only sets this; the prefix is
  /// re-executed right before the next sibling action runs, so a frame
  /// that pops, or whose remaining actions all sleep, costs nothing.
  bool stale = false;

  // Inspect the current state; push a frame when it has successors to
  // explore.  Returns false for leaves (terminal / pruned / budget).
  auto enter = [&](std::vector<VerifyAction> sleep) -> bool {
    ++res.states;
    res.max_depth_seen = std::max(res.max_depth_seen, schedule.size());
    if (exec.all_delivered()) {
      saw_complete = true;
      ++res.complete_states;
      last_complete_schedule = schedule;
      if (exec.protocols_quiescent() && !exec.user_packets_in_flight()) {
        saw_quiescent_complete = true;
      }
      exec.history_key(hkey);
      if (spec_ok.find(hkey) == spec_ok.end()) {
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
        if (!satisfies(*run, spec)) {
          ce = {"violation", "counting predicate exceeded", schedule};
          return false;
        }
        spec_ok.insert(hkey);
      }
      const std::vector<std::string> unsound =
          hold_soundness_violations(exec.trace(), exec.attribution());
      if (!unsound.empty()) {
        ce = {"hold-unsound", join(unsound, 3), schedule};
        return false;
      }
    }
    std::vector<VerifyAction> actions = exec.enabled();
    if (actions.empty()) {
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
    if (caching) {
      if (exec.fingerprint(fp)) {
        std::vector<std::vector<VerifyAction>>& stored = visited[fp];
        for (const std::vector<VerifyAction>& z : stored) {
          if (subset_of(z, sleep)) return false;  // already covered
        }
        stored.push_back(sleep);
      } else {
        caching = false;  // sound fallback: explore uncached
        res.uncached = true;
      }
    }
    stack.push_back({std::move(actions), std::move(sleep), 0});
    return true;
  };

  enter({});
  while (!stack.empty() && !ce.has_value() && !state_budget_hit) {
    Frame& f = stack.back();
    if (f.next >= f.actions.size()) {
      stack.pop_back();
      if (!schedule.empty()) {
        const VerifyAction last = schedule.back();
        schedule.pop_back();
        if (!stack.empty()) {
          stack.back().sleep.push_back(last);
          stale = true;
        }
      }
      continue;
    }
    const VerifyAction a = f.actions[f.next++];
    if (options.por && contains(f.sleep, a)) continue;
    std::vector<VerifyAction> child_sleep;
    if (options.por) {
      for (const VerifyAction& b : f.sleep) {
        if (independent_actions(a, b)) child_sleep.push_back(b);
      }
    }
    if (stale) {
      exec.replay(schedule);
      ++res.replays;
      res.replayed_actions += schedule.size();
      stale = false;
    }
    exec.apply(a);
    ++res.transitions;
    schedule.push_back(a);
    if (!enter(std::move(child_sleep))) {
      if (ce.has_value()) break;
      schedule.pop_back();
      stack.back().sleep.push_back(a);
      stale = true;
    }
  }

  if (ce.has_value()) {
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
    report.replays_total += result.replays;
    report.replayed_actions_total += result.replayed_actions;
    if (verdict_rank(result.verdict) > verdict_rank(report.verdict)) {
      report.verdict = result.verdict;
    }
    const bool stop = result.counterexample.has_value();
    report.scenarios.push_back(std::move(result));
    if (stop) break;  // first counterexample wins
  }
  return report;
}

}  // namespace msgorder
