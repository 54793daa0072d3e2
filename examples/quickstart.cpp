// Quickstart: specify a message ordering with a forbidden predicate,
// classify it, and run the synthesized protocol on a random workload.
//
// Observability flags (ISSUE 2, ISSUE 4):
//   --json <path>             write a msgorder.run_report/1 JSON report
//   --trace <path>            write a Chrome-trace JSON (open in Perfetto)
//   --flight-recorder <path>  dump a post-mortem JSON there if the run
//                             violates the spec or fails to complete
//   --profile <path>          write the engine profiler's
//                             msgorder.profile/1 JSON (ISSUE 7)
//   --tracelog <path>         record the causal trace log (ISSUE 9);
//                             query it with msgorder_query
//                             cone/cut/why/summary, diff two runs with
//                             msgorder_query diverge
//   --search-mode <m>         online monitor search: pruned (default)
//                             or naive; pruned prints one "monitor
//                             search:" line with the engine's searches,
//                             DFS nodes, nogoods and dominance prunes
#include <cstdio>
#include <cstring>
#include <string>

#include "src/checker/limit_sets.hpp"
#include "src/checker/monitor.hpp"
#include "src/checker/violation.hpp"
#include "src/obs/cli.hpp"
#include "src/obs/json.hpp"
#include "src/obs/report.hpp"
#include "src/protocols/synthesized.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"
#include "src/spec/parser.hpp"

using namespace msgorder;

int main(int argc, char** argv) {
  const ObsCli cli = parse_obs_cli(argc, argv);
  if (!cli.ok) {
    std::printf("%s\n", cli.error.c_str());
    return 2;
  }
  MonitorSearchMode search_mode = MonitorSearchMode::kPruned;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--search-mode") == 0 && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "pruned") {
        search_mode = MonitorSearchMode::kPruned;
      } else if (name == "naive") {
        search_mode = MonitorSearchMode::kNaive;
      } else {
        std::printf("unknown --search-mode %s "
                    "(expected pruned or naive)\n",
                    name.c_str());
        return 2;
      }
    }
  }

  // 1. Specify: causal ordering as a forbidden predicate.
  const ParseResult parsed =
      parse_predicate("(x.s |> y.s) & (y.r |> x.r)");
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.error.c_str());
    return 1;
  }
  const ForbiddenPredicate spec = *parsed.predicate;
  std::printf("specification: forbid %s\n", spec.to_string().c_str());

  // 2. Classify: which protocol class is necessary and sufficient?
  const Classification verdict = classify(spec);
  std::printf("classification: %s\n", verdict.to_string().c_str());

  // 3. Synthesize the protocol Theorem 3's sufficiency proof prescribes.
  const SynthesisResult synthesis = synthesize(spec);
  std::printf("synthesis: %s\n", synthesis.rationale.c_str());
  if (!synthesis.factory.has_value()) return 1;

  // 4. Simulate it on a random 4-process workload over a non-FIFO
  //    network and verify the produced run against the specification —
  //    both offline (the oracle on the finished run) and online (a
  //    monitor watching the event stream).
  Rng rng(2024);
  WorkloadOptions wopts;
  wopts.n_processes = 4;
  wopts.n_messages = 200;
  const Workload workload = random_workload(wopts, rng);

  ObservabilityOptions oopts;
  oopts.tracing = !cli.trace_path.empty();
  oopts.profiling = !cli.profile_path.empty();
  oopts.flight_recorder = !cli.flight_path.empty();
  oopts.tracelog = cli.tracelog_path;
  Observability obs(oopts);
  auto monitor = std::make_shared<OnlineMonitor>(
      workload_universe(workload), spec, search_mode);
  WitnessEngine::Stats search_stats;
  monitor->set_engine_stats(&search_stats);
  SimOptions sopts;
  sopts.observability = &obs;
  sopts.observers.add(monitor_observer(monitor));

  const SimResult result =
      simulate(workload, *synthesis.factory, wopts.n_processes, sopts);
  if (!cli.flight_path.empty()) {
    std::string fr_error;
    if (dump_postmortem_if_red(cli.flight_path, result, &obs, monitor.get(),
                               &fr_error)) {
      std::printf("run went red: wrote flight-recorder post-mortem %s\n",
                  cli.flight_path.c_str());
    } else if (!fr_error.empty()) {
      std::printf("could not write %s: %s\n", cli.flight_path.c_str(),
                  fr_error.c_str());
    }
  }
  if (!result.completed) {
    std::printf("simulation failed: %s\n", result.error.c_str());
    return 1;
  }
  const auto run = result.trace.to_user_run();
  if (!run.has_value()) return 1;

  std::printf("simulated %zu messages; mean latency %.2f, tag %.0f B/msg, "
              "%.2f control packets/msg\n",
              wopts.n_messages, result.trace.mean_latency(),
              result.trace.mean_tag_bytes(),
              result.trace.control_packets_per_message());
  std::printf("run is causally ordered: %s\n",
              in_causal(*run) ? "yes" : "NO");
  std::printf("run satisfies the forbidden predicate spec: %s\n",
              satisfies(*run, spec) ? "yes" : "NO");
  std::printf("online monitor agrees: %s\n",
              monitor->violated() ? "NO (violation seen)" : "yes");
  if (search_mode == MonitorSearchMode::kPruned) {
    std::printf("monitor search: %llu searches, %llu DFS nodes, "
                "%llu nogoods, %llu dominance prunes\n",
                static_cast<unsigned long long>(search_stats.searches),
                static_cast<unsigned long long>(search_stats.dfs_nodes),
                static_cast<unsigned long long>(search_stats.nogoods),
                static_cast<unsigned long long>(
                    search_stats.dominance_prunes));
  }

  std::string io_error;
  if (!cli.json_path.empty()) {
    RunReportOptions ropts;
    ropts.protocol = "synthesized";
    ropts.n_processes = wopts.n_processes;
    ropts.seed = sopts.seed;
    if (!write_run_report(cli.json_path, result, ropts, &obs,
                          monitor.get(), &io_error)) {
      std::printf("could not write %s: %s\n", cli.json_path.c_str(),
                  io_error.c_str());
      return 1;
    }
    std::printf("wrote run report %s\n", cli.json_path.c_str());
  }
  if (!cli.trace_path.empty()) {
    if (!obs.tracer()->write_chrome_trace(cli.trace_path, &io_error)) {
      std::printf("could not write %s: %s\n", cli.trace_path.c_str(),
                  io_error.c_str());
      return 1;
    }
    std::printf("wrote chrome trace %s (open in https://ui.perfetto.dev)\n",
                cli.trace_path.c_str());
  }
  if (!cli.profile_path.empty()) {
    if (!write_text_file(cli.profile_path, obs.profile()->to_json(),
                         &io_error)) {
      std::printf("could not write %s: %s\n", cli.profile_path.c_str(),
                  io_error.c_str());
      return 1;
    }
    std::printf("wrote engine profile %s\n", cli.profile_path.c_str());
  }
  if (!cli.tracelog_path.empty()) {
    std::printf("wrote causal trace log %s (query with msgorder_query)\n",
                cli.tracelog_path.c_str());
  }
  return 0;
}
