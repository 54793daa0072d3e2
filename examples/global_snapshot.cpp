// Global snapshots as a consumer of message ordering (paper Sections
// 1-2): run Chandy-Lamport over the simulator twice — once with markers
// sequenced FIFO with the traffic, once racing them — and show what the
// recorded cuts look like.
//
// Observability flags (ISSUE 2, ISSUE 4):
//   --json <path>    write both variants' verdicts as JSON
//                    (schema msgorder.example.global_snapshot/1)
//   --trace <path>   write a Chrome-trace JSON of the FIFO-marker run
//   --flight-recorder <path>  dump a post-mortem JSON there if the
//                    FIFO-marker run fails to complete
//   --profile <path> write the engine profiler's msgorder.profile/2
//                    JSON of the FIFO-marker run
//   --tracelog <path> record the FIFO-marker run's causal trace log
//                    (msgorder.tracelog/1, ISSUE 9); query it with
//                    msgorder_query cone/cut/why/summary
#include <cstdio>
#include <string>

#include "src/apps/snapshot.hpp"
#include "src/obs/cli.hpp"
#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/obs/report.hpp"
#include "src/obs/tracer.hpp"
#include "src/poset/diagram.hpp"
#include "src/sim/simulator.hpp"

using namespace msgorder;

namespace {

struct VariantOutcome {
  bool completed = false;
  bool complete = false;
  bool consistent = false;
  bool channels_account = false;
};

VariantOutcome run_variant(bool fifo_markers,
                           const std::string& trace_path = "",
                           const std::string& flight_path = "",
                           const std::string& profile_path = "",
                           const std::string& tracelog_path = "") {
  VariantOutcome outcome;
  Rng rng(7);
  WorkloadOptions wopts;
  wopts.n_processes = 3;
  wopts.n_messages = 40;
  wopts.mean_gap = 0.4;
  const Workload workload = random_workload(wopts, rng);
  SnapshotProtocol::Registry registry;
  SnapshotProtocol::Options options;
  options.fifo_markers = fifo_markers;
  ObservabilityOptions oopts;
  oopts.profiling = !profile_path.empty();
  oopts.flight_recorder = !flight_path.empty();
  oopts.tracelog = tracelog_path;
  Observability obs(oopts);
  SimOptions sopts;
  sopts.seed = 11;
  sopts.network.jitter_mean = 4.0;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, SnapshotProtocol::factory(options, &registry),
               wopts.n_processes, sopts);
  std::printf("--- markers %s ---\n",
              fifo_markers ? "FIFO with traffic" : "racing the traffic");
  if (!result.completed) {
    std::printf("simulation failed: %s\n", result.error.c_str());
    if (!flight_path.empty() &&
        dump_postmortem_if_red(flight_path, result, &obs)) {
      std::printf("wrote flight-recorder post-mortem %s\n",
                  flight_path.c_str());
    }
    return outcome;
  }
  outcome.completed = true;
  const GlobalSnapshot snapshot = collect(registry);
  std::printf("%s", snapshot.to_string().c_str());
  outcome.complete = snapshot.complete();
  outcome.consistent = snapshot.consistent();
  outcome.channels_account = snapshot.channel_states_account();
  std::printf("complete:  %s\n", outcome.complete ? "yes" : "no");
  std::printf("consistent cut:        %s\n",
              outcome.consistent ? "yes" : "NO");
  std::printf("channel states account: %s\n\n",
              outcome.channels_account ? "yes" : "NO");
  if (!trace_path.empty()) {
    std::string io_error;
    if (!write_chrome_trace(trace_path, result.trace, obs, &io_error)) {
      std::printf("could not write %s: %s\n", trace_path.c_str(),
                  io_error.c_str());
    } else {
      std::printf("wrote chrome trace %s "
                  "(open in https://ui.perfetto.dev)\n\n",
                  trace_path.c_str());
    }
  }
  if (!profile_path.empty()) {
    std::string io_error;
    if (!write_text_file(profile_path, obs.profile()->to_json(),
                         &io_error)) {
      std::printf("could not write %s: %s\n", profile_path.c_str(),
                  io_error.c_str());
    } else {
      std::printf("wrote engine profile %s\n\n", profile_path.c_str());
    }
  }
  if (!tracelog_path.empty()) {
    std::printf("wrote causal trace log %s (query with msgorder_query)\n\n",
                tracelog_path.c_str());
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const ObsCli cli = parse_obs_cli(argc, argv);
  if (!cli.ok) {
    std::printf("%s\n", cli.error.c_str());
    return 2;
  }
  std::printf("Chandy-Lamport global snapshot needs FIFO ordering.\n\n");

  // A tiny run first, drawn as a time diagram.
  Rng rng(3);
  WorkloadOptions small;
  small.n_processes = 3;
  small.n_messages = 4;
  small.mean_gap = 1.0;
  const Workload tiny = random_workload(small, rng);
  SnapshotProtocol::Registry registry;
  const SimResult result = simulate(
      tiny, SnapshotProtocol::factory({}, &registry), 3, SimOptions{});
  if (result.completed) {
    const auto run = result.trace.to_system_run();
    if (run.has_value()) {
      std::printf("a 4-message run, system view:\n%s\n",
                  time_diagram(*run).c_str());
    }
  }

  const VariantOutcome fifo =
      run_variant(true, cli.trace_path, cli.flight_path, cli.profile_path,
                  cli.tracelog_path);
  const VariantOutcome racing = run_variant(false);
  std::printf("the FIFO variant records a consistent cut every time; "
              "see bench_snapshot for the full sweep.\n");

  if (!cli.json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "msgorder.example.global_snapshot/1");
    w.key("variants").begin_array();
    for (const auto* v : {&fifo, &racing}) {
      w.begin_object();
      w.kv("fifo_markers", v == &fifo);
      w.kv("completed", v->completed);
      w.kv("complete", v->complete);
      w.kv("consistent", v->consistent);
      w.kv("channel_states_account", v->channels_account);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::string io_error;
    if (!write_text_file(cli.json_path, w.str(), &io_error)) {
      std::printf("could not write %s: %s\n", cli.json_path.c_str(),
                  io_error.c_str());
      return 1;
    }
    std::printf("wrote report %s\n", cli.json_path.c_str());
  }
  return 0;
}
