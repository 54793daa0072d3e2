// Experiment E2: the three protocol classes, operationally.  Every
// shipped protocol runs the same randomized workload on the same
// adversarial network; we report
//   * control packets per user message (must be 0 for tagless/tagged),
//   * mean tag bytes per message (0 for tagless, bounded for tagged),
//   * delivery buffering and end-to-end latency, and
//   * which limit set the produced run lands in,
// reproducing the paper's class separations (Sections 2, 3.2, 5).
//
// ISSUE 2: besides the stdout table the bench now writes
// BENCH_protocol_overhead.json (schema
// msgorder.bench.protocol_overhead/1, see DESIGN.md "Observability"),
// with per-protocol latency/delay histogram percentiles collected by
// the metrics registry.  ISSUE 3: the per-protocol cells are
// independent (each simulates the same workload under its own protocol
// and Observability), so they fan out over the shared parallel_for
// sweep runner; rows are serialized in registry order after the join,
// and the report records the worker count.  Flags:
//   --json <path>       output path (default BENCH_protocol_overhead.json)
//   --overhead-guard    instead of the sweep, microbench the simulator
//                       with observability disabled vs fully enabled
//   --quick             smaller workload (CI smoke configuration)
//   --threads <n>       sweep worker threads (default: hardware concurrency)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/checker/limit_sets.hpp"
#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/parallel.hpp"
#include "src/util/strings.hpp"

using namespace msgorder;

namespace {

constexpr std::size_t kProcesses = 6;
constexpr std::size_t kMessages = 2000;
constexpr std::size_t kQuickMessages = 300;
constexpr std::uint64_t kWorkloadSeed = 77;
constexpr std::uint64_t kSimSeed = 101;
constexpr double kJitterMean = 3.0;

Workload bench_workload(std::size_t n_messages = kMessages) {
  Rng rng(kWorkloadSeed);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = n_messages;
  wopts.mean_gap = 0.5;
  return random_workload(wopts, rng);
}

SimOptions bench_sim_options() {
  SimOptions sopts;
  sopts.seed = kSimSeed;
  sopts.network.jitter_mean = kJitterMean;
  return sopts;
}

/// The tentpole's zero-cost promise: with SimOptions::observability left
/// at nullptr (the default) the instrumentation must be invisible.  This
/// microbench times the same simulation disabled vs fully enabled
/// (metrics + hold attribution + flight recorder + engine profiler;
/// the Chrome trace is rendered from the finished run, so it adds
/// nothing here); the *disabled* configuration is the
/// one the driver compares
/// against the seed revision (< 2% budget) — here we report both so a
/// regression of the disabled path shows up as its time converging
/// toward the enabled one.
int overhead_guard() {
  const Workload workload = bench_workload();
  const auto time_run = [&](Observability* obs) {
    SimOptions sopts = bench_sim_options();
    sopts.observability = obs;
    // Warm-up + 3 timed repetitions, keep the best (least noisy) time.
    double best = 1e100;
    for (int rep = 0; rep < 4; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const SimResult result = simulate(workload, FifoProtocol::factory(),
                                        kProcesses, sopts);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (!result.completed) {
        std::printf("overhead guard run failed: %s\n",
                    result.error.c_str());
        return -1.0;
      }
      if (rep > 0 && elapsed < best) best = elapsed;
    }
    return best;
  };

  const double disabled = time_run(nullptr);
  if (disabled < 0) return 1;
  Observability obs({.attribution = true,
                     .profiling = true,
                     .flight_recorder = true,
                     .label = "fifo"});
  const double enabled = time_run(&obs);
  if (enabled < 0) return 1;

  const double ratio = enabled / disabled;
  std::printf("observability off: %.4fs   "
              "on (metrics+attribution+profiler+recorder): %.4fs   "
              "ratio %.3f\n",
              disabled, enabled, ratio);
  // Generous bound: even the fully *enabled* path must stay cheap; the
  // disabled path is two pointer tests per event and is what the seed
  // comparison budgets at < 2%.  Note the enabled configuration leaves
  // ObservabilityOptions::tracelog unset: this bound staying < 1.5 IS
  // the assertion that a tracelog-capable build costs nothing until a
  // log path is actually configured (ISSUE 9).  The armed flight
  // recorder does run every record through the trace log writer, into
  // its in-memory tail only.
  bool ok = ratio < 1.5;
  std::printf("RESULT: %s\n",
              ok ? "observability overhead within budget"
                 : "FAIL: enabled observability too expensive");

  // Third configuration: everything above PLUS the causal trace log
  // writing to disk.  The log pays real I/O, so its budget is looser —
  // it only has to stay in the same order of magnitude, not be free.
  const std::string log_path = "overhead_guard.tracelog";
  Observability obs_log({.attribution = true,
                         .profiling = true,
                         .flight_recorder = true,
                         .tracelog = log_path,
                         .label = "fifo"});
  const double with_log = time_run(&obs_log);
  if (with_log < 0) return 1;
  const double log_ratio = with_log / disabled;
  std::printf("on + tracelog: %.4fs   ratio %.3f\n", with_log, log_ratio);
  std::remove(log_path.c_str());
  if (log_ratio >= 4.0) {
    std::printf("RESULT: FAIL: tracelog recording too expensive\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

/// One protocol's sweep cell: simulated on a worker thread; the
/// Observability lives on the heap so its histograms survive until the
/// caller serializes the row after the join.
struct ProtocolCell {
  std::unique_ptr<Observability> obs;
  std::optional<SimResult> result;
  std::optional<UserRun> run;
  LimitSet set = LimitSet::kAsync;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_protocol_overhead.json";
  bool quick = false;
  std::size_t threads = 0;  // 0: pick from hardware concurrency
  bool guard = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overhead-guard") == 0) {
      guard = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
  }
  if (guard) return overhead_guard();

  const std::size_t n_messages = quick ? kQuickMessages : kMessages;
  const Workload workload = bench_workload(n_messages);

  std::printf("E2: protocol overhead on %zu processes, %zu messages, "
              "non-FIFO network\n\n",
              kProcesses, n_messages);
  std::printf("%s %-10s %-10s %-10s %-10s %-10s %-8s\n",
              pad_right("protocol", 16).c_str(), "ctrl/msg", "tag B/msg",
              "buffer", "latency", "max lat", "run in");
  std::printf("%s\n", std::string(84, '-').c_str());

  // Fan the independent protocol cells out over the sweep pool: each
  // cell only touches its own slot; stdout and JSON stay in registry
  // order because serialization happens after the join.
  const std::vector<RegisteredProtocol> protocols = standard_protocols();
  if (threads == 0) threads = default_sweep_threads(protocols.size());
  std::vector<ProtocolCell> cells(protocols.size());
  parallel_for(protocols.size(), threads, [&](std::size_t i) {
    ProtocolCell& cell = cells[i];
    cell.obs = std::make_unique<Observability>(
        ObservabilityOptions{.label = protocols[i].name});
    SimOptions sopts = bench_sim_options();
    sopts.observability = cell.obs.get();
    cell.result =
        simulate(workload, protocols[i].factory, kProcesses, sopts);
    if (!cell.result->completed) return;
    cell.run = cell.result->trace.to_user_run();
    if (cell.run.has_value()) cell.set = finest_limit_set(*cell.run);
  });

  JsonWriter w;
  w.begin_object();
  w.kv("schema", "msgorder.bench.protocol_overhead/1");
  w.kv("bench", "protocol_overhead");
  w.kv("n_processes", kProcesses);
  w.kv("n_messages", n_messages);
  w.kv("workload_seed", kWorkloadSeed);
  w.kv("sim_seed", kSimSeed);
  w.kv("sweep_threads", static_cast<std::uint64_t>(threads));
  w.key("network").begin_object();
  w.kv("jitter_mean", kJitterMean);
  w.kv("fifo_channels", false);
  w.end_object();
  w.key("rows").begin_array();

  bool ok = true;
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const RegisteredProtocol& rp = protocols[i];
    const ProtocolCell& cell = cells[i];
    const SimResult& result = *cell.result;

    w.begin_object();
    w.kv("protocol", rp.name);
    w.kv("completed", result.completed);

    if (!result.completed) {
      std::printf("%s FAILED: %s\n", rp.name.c_str(),
                  result.error.c_str());
      ok = false;
      w.kv("error", result.error);
      w.end_object();
      continue;
    }
    if (!cell.run.has_value()) {
      ok = false;
      w.kv("error", "trace has no user view");
      w.end_object();
      continue;
    }
    const LimitSet set = cell.set;
    std::printf("%s %-10.2f %-10.1f %-10.2f %-10.2f %-10.2f %-8s\n",
                pad_right(rp.name, 16).c_str(),
                result.trace.control_packets_per_message(),
                result.trace.mean_tag_bytes(),
                result.trace.mean_delivery_delay(),
                result.trace.mean_latency(), result.trace.max_latency(),
                to_string(set).c_str());

    w.kv("limit_set", to_string(set));
    w.kv("control_packets_per_message",
         result.trace.control_packets_per_message());
    w.kv("mean_tag_bytes", result.trace.mean_tag_bytes());
    w.kv("control_packets", result.trace.control_packets());
    w.kv("control_bytes", result.trace.control_bytes());
    w.kv("tag_bytes", result.trace.tag_bytes());
    w.kv("drops", result.trace.drops());
    w.kv("retransmissions", result.trace.retransmissions());
    w.kv("duplicate_arrivals", result.trace.duplicate_arrivals());
    const SimInstruments& ins = cell.obs->instruments();
    w.key("latency");
    write_histogram_json(w, *ins.latency);
    w.key("send_delay");
    write_histogram_json(w, *ins.send_delay);
    w.key("delivery_delay");
    write_histogram_json(w, *ins.delivery_delay);
    w.kv("buffered_depth_max", ins.buffered_depth->max());
    w.end_object();

    // Class invariants from the paper.
    const bool is_general = rp.name == "sync-sequencer" ||
                            rp.name == "sync-token" ||
                            rp.name == "sync-locks";
    if (!is_general && result.trace.control_packets() != 0) {
      std::printf("  ^ UNEXPECTED control messages in a tagged/tagless "
                  "protocol\n");
      ok = false;
    }
    if (is_general && set != LimitSet::kSync) {
      std::printf("  ^ sync protocol produced a non-sync run\n");
      ok = false;
    }
    if ((rp.name == "causal-rst" || rp.name == "causal-ses") &&
        set == LimitSet::kAsync) {
      std::printf("  ^ causal protocol produced a non-causal run\n");
      ok = false;
    }
  }

  w.end_array();
  w.kv("invariants_hold", ok);
  w.end_object();

  std::string io_error;
  if (!write_text_file(json_path, w.str(), &io_error)) {
    std::printf("could not write %s: %s\n", json_path.c_str(),
                io_error.c_str());
    ok = false;
  } else {
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf("\nexpected shape: async tag 0 / fifo tag 4 / causal tags "
              "O(n)..O(n^2) / sync protocols pay control messages and "
              "land in the sync set\n");
  std::printf("RESULT: %s\n", ok ? "all class invariants hold" : "FAIL");
  return ok ? 0 : 1;
}
