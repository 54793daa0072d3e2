// The conformance matrix: every shipped protocol simulated on the same
// workload, judged against every specification in the zoo.  The matrix
// visualizes the paper's containment structure: stronger protocol
// classes satisfy everything below them.
//
// Observability flags (ISSUE 2):
//   --json <path>    write the matrix as JSON (msgorder.conformance/1)
//   --trace <path>   write a Chrome-trace JSON of one representative
//                    causal-rst run — open it in https://ui.perfetto.dev
//                    to see each message's x.s* -> x.s -> x.r* -> x.r
//                    lifecycle and the causal send->receive flow arrows
//   --tracelog <path> record the causal trace log of one representative
//                    sync-token (token-ring) run (ISSUE 9);
//                    `msgorder_query why <path> --msg N` then walks the
//                    wait_token hold chain to the token holder
#include <cstdio>
#include <vector>

#include "src/checker/limit_sets.hpp"
#include "src/checker/violation.hpp"
#include "src/obs/cli.hpp"
#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/obs/tracer.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"
#include "src/util/strings.hpp"

using namespace msgorder;

int main(int argc, char** argv) {
  const ObsCli cli = parse_obs_cli(argc, argv);
  if (!cli.ok) {
    std::printf("%s\n", cli.error.c_str());
    return 2;
  }
  const std::size_t kProcesses = 4;
  const std::size_t kMessages = 150;
  Rng rng(86);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = kMessages;
  wopts.mean_gap = 0.2;
  wopts.red_fraction = 0.25;  // red messages exercise the colored specs
  const Workload workload = random_workload(wopts, rng);

  const auto zoo = spec_zoo();
  const auto protocols = standard_protocols();

  std::printf("conformance matrix: '+' satisfied, '.' violated "
              "(%zu messages, %zu processes, seeds aggregated)\n\n",
              kMessages, kProcesses);
  std::printf("%s", pad_right("spec \\ protocol", 26).c_str());
  for (const RegisteredProtocol& rp : protocols) {
    std::printf(" %s", pad_right(rp.name.substr(0, 9), 9).c_str());
  }
  std::printf("\n");

  // Run each protocol over a few seeds; a spec is "satisfied" only if it
  // holds on every seed.
  std::vector<std::vector<bool>> satisfied(
      zoo.size(), std::vector<bool>(protocols.size(), true));
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SimOptions sopts;
      sopts.seed = seed;
      sopts.network.jitter_mean = 3.0;
      const SimResult result =
          simulate(workload, protocols[p].factory, kProcesses, sopts);
      if (!result.completed) {
        for (std::size_t s = 0; s < zoo.size(); ++s) {
          satisfied[s][p] = false;
        }
        break;
      }
      const auto run = result.trace.to_user_run();
      for (std::size_t s = 0; s < zoo.size(); ++s) {
        // The oracle is O(|M|^arity); exhaustively confirming a
        // *satisfied* high-arity spec on a 150-message run explores
        // combinatorially many chains, so the matrix sticks to arity<=3.
        if (zoo[s].predicate.arity > 3) continue;
        if (!satisfies(*run, zoo[s].predicate)) satisfied[s][p] = false;
      }
    }
  }

  for (std::size_t s = 0; s < zoo.size(); ++s) {
    if (zoo[s].predicate.arity > 3) continue;  // oracle cost, see above
    std::printf("%s", pad_right(zoo[s].name, 26).c_str());
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      std::printf(" %s", pad_right(satisfied[s][p] ? "+" : ".", 9).c_str());
    }
    std::printf("\n");
  }

  std::printf("\nreading guide: the sync protocols' columns are all '+' "
              "(X_sync is inside every implementable spec); causal "
              "columns satisfy every tagged/tagless spec; async "
              "satisfies only the tagless rows.\n");

  std::string io_error;
  if (!cli.json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "msgorder.conformance/1");
    w.kv("n_processes", kProcesses);
    w.kv("n_messages", kMessages);
    w.key("protocols").begin_array();
    for (const RegisteredProtocol& rp : protocols) w.value(rp.name);
    w.end_array();
    w.key("rows").begin_array();
    for (std::size_t s = 0; s < zoo.size(); ++s) {
      if (zoo[s].predicate.arity > 3) continue;
      w.begin_object();
      w.kv("spec", zoo[s].name);
      w.kv("predicate", zoo[s].predicate.to_string());
      w.key("satisfied").begin_array();
      for (std::size_t p = 0; p < protocols.size(); ++p) {
        w.value(static_cast<bool>(satisfied[s][p]));
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!write_text_file(cli.json_path, w.str(), &io_error)) {
      std::printf("could not write %s: %s\n", cli.json_path.c_str(),
                  io_error.c_str());
      return 1;
    }
    std::printf("wrote conformance matrix %s\n", cli.json_path.c_str());
  }

  if (!cli.trace_path.empty()) {
    // One representative traced run: causal-rst is tagged (no control
    // traffic), so the Perfetto view shows pure buffer slices where
    // deliveries wait for their causal predecessors.
    for (const RegisteredProtocol& rp : protocols) {
      if (rp.name != "causal-rst") continue;
      Observability obs({.label = rp.name});
      SimOptions sopts;
      sopts.seed = 1;
      sopts.network.jitter_mean = 3.0;
      sopts.observability = &obs;
      const SimResult result =
          simulate(workload, rp.factory, kProcesses, sopts);
      if (!result.completed) {
        std::printf("traced run failed: %s\n", result.error.c_str());
        return 1;
      }
      if (!write_chrome_trace(cli.trace_path, result.trace, obs,
                              &io_error)) {
        std::printf("could not write %s: %s\n", cli.trace_path.c_str(),
                    io_error.c_str());
        return 1;
      }
      std::printf("wrote chrome trace of a causal-rst run to %s "
                  "(open in https://ui.perfetto.dev)\n",
                  cli.trace_path.c_str());
    }
  }

  if (!cli.tracelog_path.empty()) {
    // One representative causal trace log: sync-token is the token
    // ring, so every send waits its turn and `msgorder_query why`
    // chains the wait_token holds to the current token holder.
    for (const RegisteredProtocol& rp : protocols) {
      if (rp.name != "sync-token") continue;
      ObservabilityOptions oopts;
      oopts.tracelog = cli.tracelog_path;
      oopts.label = rp.name;
      Observability obs(oopts);
      SimOptions sopts;
      sopts.seed = 1;
      sopts.network.jitter_mean = 3.0;
      sopts.observability = &obs;
      const SimResult result =
          simulate(workload, rp.factory, kProcesses, sopts);
      if (!result.completed) {
        std::printf("trace-logged run failed: %s\n", result.error.c_str());
        return 1;
      }
      std::printf("wrote causal trace log of a sync-token run to %s "
                  "(query with msgorder_query)\n",
                  cli.tracelog_path.c_str());
    }
  }
  return 0;
}
