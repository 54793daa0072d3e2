// The Section 5 mobile-computing scenario: a mobile unit moving between
// base stations must exchange handoff messages that are ordered with
// respect to all other traffic.  The paper's algorithm says this needs
// control messages; this example demonstrates both directions
// operationally:
//   * a tagged causal protocol eventually lets a handoff message cross
//     ordinary traffic (spec violated), while
//   * the general sequencer protocol never does.
//
// Observability flags (ISSUE 2):
//   --json <path>    write the separation result as JSON
//                    (schema msgorder.example.mobile_handoff/1)
//   --trace <path>   write a Chrome-trace JSON of one sync-sequencer
//                    handoff run (the control traffic is visible as
//                    extra latency between x.s* and x.s)
#include <cstdio>

#include "src/checker/violation.hpp"
#include "src/obs/cli.hpp"
#include "src/obs/json.hpp"
#include "src/obs/tracer.hpp"
#include "src/protocols/causal_rst.hpp"
#include "src/protocols/sync_sequencer.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/classify.hpp"
#include "src/spec/library.hpp"

using namespace msgorder;

namespace {

constexpr int kHandoffColor = 2;

// Processes: 0 = mobile unit, 1 and 2 = base stations, 3 = peer host.
Workload handoff_workload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<SimTime, ProcessId, ProcessId, int>> entries;
  SimTime t = 0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    // Ordinary traffic: peer chats with the mobile via both stations.
    for (int i = 0; i < 4; ++i) {
      t += rng.exponential(0.3);
      const ProcessId a = rng.chance(0.5) ? 1 : 2;
      if (rng.chance(0.5)) {
        entries.push_back({t, 3, a, 0});
      } else {
        entries.push_back({t, a, 0, 0});
      }
    }
    // Handoff exchange between the stations.
    t += rng.exponential(0.2);
    entries.push_back({t, 1, 2, kHandoffColor});
    t += rng.exponential(0.2);
    entries.push_back({t, 2, 1, kHandoffColor});
  }
  return scripted_workload(entries);
}

std::size_t violations_over_seeds(const ProtocolFactory& factory,
                                  const ForbiddenPredicate& spec,
                                  std::size_t* control_packets) {
  std::size_t violated = 0;
  *control_packets = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SimOptions sopts;
    sopts.seed = seed;
    sopts.network.jitter_mean = 3.0;
    const SimResult result =
        simulate(handoff_workload(seed), factory, 4, sopts);
    if (!result.completed) {
      ++violated;
      continue;
    }
    *control_packets += result.trace.control_packets();
    const auto run = result.trace.to_user_run();
    if (!run.has_value() || !satisfies(*run, spec)) ++violated;
  }
  return violated;
}

}  // namespace

int main(int argc, char** argv) {
  const ObsCli cli = parse_obs_cli(argc, argv);
  if (!cli.ok) {
    std::printf("%s\n", cli.error.c_str());
    return 2;
  }
  const ForbiddenPredicate spec = mobile_handoff(kHandoffColor);
  std::printf("handoff specification: forbid %s\n",
              spec.to_string().c_str());
  const Classification verdict = classify(spec);
  std::printf("classification: %s\n", verdict.to_string().c_str());
  std::printf("=> the paper: guaranteeing this condition requires "
              "additional control messages\n\n");

  std::size_t causal_ctrl = 0;
  const std::size_t causal_violations = violations_over_seeds(
      CausalRstProtocol::factory(), spec, &causal_ctrl);
  std::printf("causal-rst (tagged):     %2zu/25 runs violate the spec "
              "(%zu control packets used)\n",
              causal_violations, causal_ctrl);

  std::size_t seq_ctrl = 0;
  const std::size_t seq_violations = violations_over_seeds(
      SyncSequencerProtocol::factory(), spec, &seq_ctrl);
  std::printf("sync-sequencer (general): %2zu/25 runs violate the spec "
              "(%zu control packets used)\n",
              seq_violations, seq_ctrl);

  const bool as_predicted = causal_violations > 0 && seq_violations == 0;
  std::printf("\n%s\n",
              as_predicted
                  ? "as predicted: tagging alone cannot protect the "
                    "handoff; control messages can"
                  : "UNEXPECTED: the separation did not show on these "
                    "seeds");

  std::string io_error;
  if (!cli.json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "msgorder.example.mobile_handoff/1");
    w.kv("spec", spec.to_string());
    w.kv("classification", verdict.to_string());
    w.kv("runs_per_protocol", 25);
    w.key("rows").begin_array();
    w.begin_object();
    w.kv("protocol", "causal-rst");
    w.kv("violations", causal_violations);
    w.kv("control_packets", causal_ctrl);
    w.end_object();
    w.begin_object();
    w.kv("protocol", "sync-sequencer");
    w.kv("violations", seq_violations);
    w.kv("control_packets", seq_ctrl);
    w.end_object();
    w.end_array();
    w.kv("as_predicted", as_predicted);
    w.end_object();
    if (!write_text_file(cli.json_path, w.str(), &io_error)) {
      std::printf("could not write %s: %s\n", cli.json_path.c_str(),
                  io_error.c_str());
      return 1;
    }
    std::printf("wrote report %s\n", cli.json_path.c_str());
  }
  if (!cli.trace_path.empty()) {
    Observability obs({.label = "sync-sequencer"});
    SimOptions sopts;
    sopts.seed = 1;
    sopts.network.jitter_mean = 3.0;
    sopts.observability = &obs;
    const SimResult result = simulate(
        handoff_workload(1), SyncSequencerProtocol::factory(), 4, sopts);
    if (!result.completed ||
        !write_chrome_trace(cli.trace_path, result.trace, obs, &io_error)) {
      std::printf("could not write %s: %s\n", cli.trace_path.c_str(),
                  (result.completed ? io_error : result.error).c_str());
      return 1;
    }
    std::printf("wrote chrome trace %s (open in https://ui.perfetto.dev)\n",
                cli.trace_path.c_str());
  }
  return as_predicted ? 0 : 1;
}
