// msgorder_verify — exhaustive bounded verification CLI (ISSUE 10
// tentpole).  Explores every delivery interleaving a channel model
// allows for each selected stack on the standard scenario set, and
// reports the first spec violation / deadlock / hold-soundness breach /
// control-message leak as a replayable counterexample.
//
//   msgorder_verify --all [--procs N] [--msgs N] [--channel-model M]
//   msgorder_verify --stack fifo --json report.json
//   msgorder_verify --stack mutant:fifo-overtake --tracelog ce.log
//
// Exit codes: 0 = every selected stack verified (or bounded under
// --quick / --max-states — never a false "verified"), 1 = at least one
// counterexample-class verdict (the CI mutant gate asserts exactly this
// exit for every seeded mutant), 2 = usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/verify/report.hpp"
#include "src/verify/scenario.hpp"
#include "src/verify/stacks.hpp"
#include "src/verify/verifier.hpp"

namespace {

using namespace msgorder;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--stack NAME | --all [--mutants]] [--list]\n"
      "       [--procs N] [--msgs N] [--channel-model fifo|reorder|lossy]\n"
      "       [--scenarios K] [--no-por] [--no-state-cache]\n"
      "       [--quick] [--max-states N] [--max-drops N]\n"
      "       [--json PATH|-] [--tracelog PATH]\n"
      "\n"
      "Exhaustively verifies protocol stacks on bounded scenarios\n"
      "(default scope: 3 processes, 4 messages, reorder channels).\n"
      "--all runs every registry stack plus the synthesized causal\n"
      "stack; --mutants adds the seeded-bug stacks (which must be\n"
      "flagged, so their runs exit 1).  --scenarios K appends K seeded\n"
      "random scenarios to the standard twelve.  --quick caps the\n"
      "per-scenario state budget and reports \"bounded\" instead of a\n"
      "false \"verified\".  --tracelog replays the first counterexample\n"
      "into a msgorder.tracelog/1 log for msgorder_query why/diverge.\n"
      "\n"
      "Exit codes: 0 verified/bounded, 1 counterexample found, 2 usage\n"
      "or I/O error.\n",
      argv0);
  return 2;
}

bool parse_size(const char* s, std::size_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stack_name;
  bool all = false;
  bool list = false;
  bool include_mutants = false;
  std::size_t n_processes = 3;
  std::size_t n_messages = 4;
  std::size_t extra_scenarios = 0;
  std::string json_path;
  std::string tracelog_path;
  bool quick = false;
  VerifyOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stack") {
      if (++i >= argc) return usage(argv[0]);
      stack_name = argv[i];
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--mutants") {
      include_mutants = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--procs") {
      if (++i >= argc || !parse_size(argv[i], &n_processes)) {
        return usage(argv[0]);
      }
    } else if (arg == "--msgs") {
      if (++i >= argc || !parse_size(argv[i], &n_messages)) {
        return usage(argv[0]);
      }
    } else if (arg == "--channel-model") {
      if (++i >= argc) return usage(argv[0]);
      const auto model = parse_channel_model(argv[i]);
      if (!model.has_value()) {
        std::fprintf(stderr, "msgorder_verify: unknown channel model %s\n",
                     argv[i]);
        return 2;
      }
      options.channel_model = *model;
    } else if (arg == "--scenarios") {
      if (++i >= argc || !parse_size(argv[i], &extra_scenarios)) {
        return usage(argv[0]);
      }
    } else if (arg == "--no-por") {
      options.por = false;
    } else if (arg == "--no-state-cache") {
      options.state_cache = false;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--max-states") {
      if (++i >= argc || !parse_size(argv[i], &options.max_states)) {
        return usage(argv[0]);
      }
    } else if (arg == "--max-drops") {
      if (++i >= argc || !parse_size(argv[i], &options.max_drops)) {
        return usage(argv[0]);
      }
    } else if (arg == "--json") {
      if (++i >= argc) return usage(argv[0]);
      json_path = argv[i];
    } else if (arg == "--tracelog") {
      if (++i >= argc) return usage(argv[0]);
      tracelog_path = argv[i];
    } else {
      std::fprintf(stderr, "msgorder_verify: unknown argument %s\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }
  if (quick && options.max_states == 0) options.max_states = 20000;

  if (list) {
    for (const VerifyTarget& t : verify_targets(true)) {
      std::string note;
      if (t.is_mutant) {
        note = "  [mutant; expect " + t.expected_verdict + "]";
      }
      std::printf("%-24s %s%s\n", t.name.c_str(), t.description.c_str(),
                  note.c_str());
    }
    return 0;
  }
  if (stack_name.empty() && !all) return usage(argv[0]);
  if (!stack_name.empty() && all) {
    std::fprintf(stderr, "msgorder_verify: --stack and --all conflict\n");
    return 2;
  }

  std::vector<VerifyTarget> targets;
  if (all) {
    targets = verify_targets(include_mutants);
  } else {
    auto target = find_verify_target(stack_name);
    if (!target.has_value()) {
      std::fprintf(stderr, "msgorder_verify: unknown stack %s (try --list)\n",
                   stack_name.c_str());
      return 2;
    }
    targets.push_back(std::move(*target));
  }

  std::vector<Scenario> scenarios =
      standard_scenarios(n_processes, n_messages);
  for (std::size_t k = 0; k < extra_scenarios; ++k) {
    scenarios.push_back(random_scenario(n_processes, n_messages, k + 1));
  }

  std::vector<StackReport> reports;
  bool any_counterexample = false;
  bool tracelog_written = false;
  for (const VerifyTarget& target : targets) {
    StackReport report = verify_stack(target.name, target.factory,
                                      target.spec, scenarios, options);
    const char* note = "";
    if (target.is_mutant) {
      note = report.ok() ? "  [MUTANT NOT FLAGGED]" : "  [mutant flagged]";
    }
    std::printf(
        "%-24s %-14s %zu scenarios, %zu states, %zu transitions, "
        "%zu replays (%zu actions)%s\n",
        report.stack.c_str(), report.verdict.c_str(),
        report.scenarios.size(), report.states_total,
        report.transitions_total, report.replays_total,
        report.replayed_actions_total, note);
    const VerifyCounters& c = report.counters_total;
    std::printf(
        "  spec: %zu checks, %zu memo hits; interned: %zu hosts, "
        "%zu channels, %zu packets, %zu history nodes; %zu re-interned\n",
        c.spec_checks, c.spec_memo_hits, c.interned_hosts,
        c.interned_channels, c.interned_packets, c.interned_history_nodes,
        c.reinterned);
    for (const ScenarioResult& s : report.scenarios) {
      if (s.counterexample.has_value()) {
        std::printf("  counterexample in %s: %s (%zu-step schedule)\n",
                    s.scenario.c_str(), s.detail.c_str(),
                    s.counterexample->schedule.size());
        if (!tracelog_path.empty() && !tracelog_written) {
          const Scenario* scenario = nullptr;
          for (const Scenario& cand : scenarios) {
            if (cand.name == s.scenario) scenario = &cand;
          }
          std::string error;
          if (scenario == nullptr ||
              !replay_counterexample(*scenario, target.factory, target.name,
                                     options, *s.counterexample,
                                     tracelog_path, &error)) {
            std::fprintf(stderr, "msgorder_verify: tracelog replay: %s\n",
                         error.empty() ? "scenario not found" : error.c_str());
            return 2;
          }
          std::printf("  counterexample replayed to %s\n",
                      tracelog_path.c_str());
          tracelog_written = true;
        }
      }
    }
    if (!report.ok()) any_counterexample = true;
    reports.push_back(std::move(report));
  }

  if (!json_path.empty()) {
    JsonWriter w;
    write_verify_json(w, reports, n_processes, n_messages, options);
    if (json_path == "-") {
      std::printf("%s\n", w.str().c_str());
    } else {
      std::string error;
      if (!write_text_file(json_path, w.str() + "\n", &error)) {
        std::fprintf(stderr, "msgorder_verify: %s\n", error.c_str());
        return 2;
      }
    }
  }
  return any_counterexample ? 1 : 0;
}
