// Simulator throughput under sharding.  One fixed randomized workload
// (1M messages by default) runs under the FIFO stack at each shard
// count; shards=1 is the baseline.  For every multi-shard run the trace
// is checked for bit-identity against the baseline (the determinism
// contract), and the JSON row records the event rate the CI gate
// regresses on:
//
//   BENCH_sim_throughput.json, schema msgorder.bench.sim_throughput/2
//   rows[*]: shards, workers, engine, seconds (min over reps),
//            seconds_median, seconds_cv, events, events_per_second,
//            events_per_second_median, speedup_vs_sequential,
//            speedup_vs_sequential_median, reps, trace_parity
//
// Schema /2 (ISSUE 7) adds --reps statistics (min / median / CV per
// timing field), a top-level "field_meta" object declaring the diff
// direction and noise floor of every gated field (consumed by
// msgorder_stats --diff instead of its leaf-name heuristic), and a
// top-level "profile" section: the msgorder.profile/2 document from one
// extra, untimed run at the largest shard count with the engine
// profiler attached.
//
// Every row runs the same engine, so speedup_vs_sequential (the name is
// kept from schema /2) is N shards against one shard of that engine: it
// prices only parallelism — worker threads running shards inside each
// conservative window — against the per-window barrier, ring and
// partitioning overhead.  Rows record the worker count and the host's
// hardware concurrency so results from single-core CI runners read
// honestly.
//
// Flags:
//   --json <path>     output path (default BENCH_sim_throughput.json)
//   --quick           100k messages, shards {1, 4} (CI smoke + gate)
//   --messages <n>    override the workload size
//   --workers <n>     force SimOptions::shard_workers (default 0 = auto)
//   --reps <n>        timed repetitions per cell (default 1); rows keep
//                     min, median, and coefficient of variation
//   --tracelog-dir <dir>  after the sweep, three extra untimed runs
//                     recording causal trace logs:
//                     sequential.tracelog (one shard), sharded.tracelog
//                     (largest shard count), and perturbed.tracelog (one
//                     shard with one channel's RNG stream XOR-perturbed).
//                     CI asserts `msgorder_query diverge` finds the
//                     first two identical and names the first diverging
//                     event of the third.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/protocols/fifo.hpp"
#include "src/sim/simulator.hpp"

using namespace msgorder;

namespace {

constexpr std::size_t kProcesses = 32;
constexpr std::size_t kMessages = 1'000'000;
constexpr std::size_t kQuickMessages = 100'000;
constexpr std::uint64_t kWorkloadSeed = 4242;
constexpr std::uint64_t kSimSeed = 1717;
// Fat conservative windows: lookahead 10 covers ~320 invokes per window
// at 32 processes with unit mean gap, so barrier overhead amortizes.
constexpr double kBaseDelay = 10.0;
constexpr double kJitterMean = 2.0;
constexpr double kMeanGap = 1.0;

/// Order-independent-free digest of the full trace: every per-process
/// log entry (process, message, kind, exact time bits) folded in log
/// order.  Equal digests + equal counters == the traces are identical
/// for the purpose of the parity gate (the unit tests compare
/// field-by-field; here we avoid keeping two 4M-event traces alive).
std::uint64_t trace_digest(const Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (std::size_t p = 0; p < trace.logs().size(); ++p) {
    mix(p);
    for (const TimedEvent& te : trace.logs()[p]) {
      mix(te.event.msg);
      mix(static_cast<std::uint64_t>(te.event.kind));
      mix(std::bit_cast<std::uint64_t>(te.time));
    }
  }
  mix(trace.control_packets());
  mix(trace.user_packets());
  mix(trace.tag_bytes());
  return h;
}

std::size_t trace_events(const Trace& trace) {
  std::size_t n = 0;
  for (const auto& log : trace.logs()) n += log.size();
  return n;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Coefficient of variation (stddev / mean) across the reps — the
/// variance characterization the noise floors in field_meta rest on.
double cv_of(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  const double mean = sum / static_cast<double>(v.size());
  if (mean == 0.0) return 0.0;
  double sq = 0.0;
  for (const double x : v) sq += (x - mean) * (x - mean);
  return std::sqrt(sq / static_cast<double>(v.size() - 1)) / mean;
}

struct Cell {
  std::size_t shards = 0;
  std::size_t shards_used = 0;
  std::size_t workers_used = 0;
  std::vector<double> rep_seconds;
  std::size_t events = 0;
  std::uint64_t digest = 0;
  bool completed = false;
  std::string error;

  double seconds_min() const {
    return *std::min_element(rep_seconds.begin(), rep_seconds.end());
  }
};

void write_field_meta(JsonWriter& w) {
  const auto field = [&w](const char* name, const char* direction,
                          double noise_floor) {
    w.key(name).begin_object();
    w.kv("direction", direction);
    w.kv("noise_floor", noise_floor);
    w.end_object();
  };
  w.key("field_meta").begin_object();
  // Min-of-reps timings still jitter heavily on shared CI runners;
  // medians are steadier, so they get the tighter floor.
  field("seconds", "lower", 0.5);
  field("seconds_median", "lower", 0.4);
  field("seconds_cv", "neutral", 0.0);
  field("events", "neutral", 0.0);
  field("events_per_second", "higher", 0.5);
  field("events_per_second_median", "higher", 0.4);
  field("speedup_vs_sequential", "higher", 0.5);
  field("speedup_vs_sequential_median", "higher", 0.4);
  field("reps", "neutral", 0.0);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sim_throughput.json";
  std::string tracelog_dir;
  bool quick = false;
  std::size_t n_messages = 0;
  std::size_t workers = 0;
  int reps = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tracelog-dir") == 0 && i + 1 < argc) {
      tracelog_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--messages") == 0 && i + 1 < argc) {
      n_messages = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    }
  }
  if (n_messages == 0) n_messages = quick ? kQuickMessages : kMessages;
  const std::vector<std::size_t> shard_counts =
      quick ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};

  std::printf("sim throughput: %zu processes, %zu messages, fifo stack, "
              "base delay %.1f (lookahead), jitter %.1f, %d rep%s\n\n",
              kProcesses, n_messages, kBaseDelay, kJitterMean, reps,
              reps == 1 ? "" : "s");

  Rng rng(kWorkloadSeed);
  WorkloadOptions wopts;
  wopts.n_processes = kProcesses;
  wopts.n_messages = n_messages;
  wopts.mean_gap = kMeanGap;
  const Workload workload = random_workload(wopts, rng);

  const auto make_sopts = [&](std::size_t shards) {
    SimOptions sopts;
    sopts.seed = kSimSeed;
    sopts.network.base_delay = kBaseDelay;
    sopts.network.jitter_mean = kJitterMean;
    sopts.shards = shards;
    sopts.shard_workers = workers;
    sopts.max_events = n_messages * 40 + 1'000'000;
    return sopts;
  };

  std::vector<Cell> cells;
  cells.reserve(shard_counts.size());
  for (const std::size_t shards : shard_counts) {
    Cell cell;
    cell.shards = shards;
    for (int rep = 0; rep < reps; ++rep) {
      const SimOptions sopts = make_sopts(shards);
      const auto start = std::chrono::steady_clock::now();
      SimResult result =
          simulate(workload, FifoProtocol::factory(), kProcesses, sopts);
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      cell.rep_seconds.push_back(elapsed);
      if (rep == 0) {
        cell.shards_used = result.shards_used;
        cell.workers_used = result.workers_used;
        cell.completed = result.completed;
        cell.error = result.error;
        if (result.completed) {
          cell.events = trace_events(result.trace);
          cell.digest = trace_digest(result.trace);
        }
      }
    }
    std::printf("shards=%zu (used %zu, workers %zu): min %.3fs, "
                "median %.3fs, cv %.3f, %zu events, %.0f events/s%s\n",
                cell.shards, cell.shards_used, cell.workers_used,
                cell.seconds_min(), median_of(cell.rep_seconds),
                cv_of(cell.rep_seconds), cell.events,
                static_cast<double>(cell.events) / cell.seconds_min(),
                cell.completed ? "" : "  FAILED");
    cells.push_back(std::move(cell));
  }

  const Cell& base = cells.front();
  bool ok = base.completed && base.shards == 1;
  for (const Cell& cell : cells) {
    if (!cell.completed) {
      std::printf("FAIL: shards=%zu did not complete: %s\n", cell.shards,
                  cell.error.c_str());
      ok = false;
    } else if (cell.digest != base.digest || cell.events != base.events) {
      std::printf("FAIL: shards=%zu trace differs from the one-shard "
                  "baseline\n",
                  cell.shards);
      ok = false;
    }
  }

  // One extra, untimed run at the largest shard count with the engine
  // profiler attached; its msgorder.profile/2 document rides
  // along in the report so CI can sanity-check the counters against the
  // timed rows (same workload + seed = same deterministic event total).
  ObservabilityOptions popts;
  popts.attribution = false;
  popts.profiling = true;
  Observability profile_obs(popts);
  {
    SimOptions sopts = make_sopts(shard_counts.back());
    sopts.observability = &profile_obs;
    const SimResult result =
        simulate(workload, FifoProtocol::factory(), kProcesses, sopts);
    if (!result.completed) {
      std::printf("FAIL: profiled run did not complete: %s\n",
                  result.error.c_str());
      ok = false;
    }
  }
  const SimProfile* profile = profile_obs.profile();
  std::printf("\nprofiled run (shards=%zu): %llu windows, %llu events, "
              "stalls lookahead/empty = %llu/%llu\n",
              shard_counts.back(),
              static_cast<unsigned long long>(profile->windows()),
              static_cast<unsigned long long>(profile->total_events()),
              static_cast<unsigned long long>(
                  profile->total_stall_lookahead()),
              static_cast<unsigned long long>(profile->total_stall_empty()));

  // Causal trace log recordings (ISSUE 9): three more untimed runs of
  // the same workload.  Sequential vs sharded must produce
  // byte-identical logs (msgorder_query diverge exit 0 — the
  // determinism contract, now end-to-end observable); the perturbed run
  // XORs one channel's RNG stream so diverge has a real first
  // divergence to name.
  if (!tracelog_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(tracelog_dir, ec);
    if (ec) {
      std::printf("FAIL: could not create %s: %s\n", tracelog_dir.c_str(),
                  ec.message().c_str());
      ok = false;
    }
    const auto record = [&](const char* name, std::size_t shards,
                            std::uint64_t perturb) {
      ObservabilityOptions topts;
      topts.attribution = false;
      topts.tracelog = tracelog_dir + "/" + name;
      Observability obs(topts);
      SimOptions sopts = make_sopts(shards);
      sopts.observability = &obs;
      if (perturb != 0) {
        sopts.network.perturb_channel_xor = perturb;
        sopts.network.perturb_src = workload.front().message.src;
        sopts.network.perturb_dst = workload.front().message.dst;
      }
      const SimResult result =
          simulate(workload, FifoProtocol::factory(), kProcesses, sopts);
      if (!result.completed) {
        std::printf("FAIL: tracelog run %s did not complete: %s\n", name,
                    result.error.c_str());
        ok = false;
        return;
      }
      std::printf("recorded %s (%llu events, %llu bytes)\n",
                  topts.tracelog.c_str(),
                  static_cast<unsigned long long>(
                      obs.tracelog()->events_written()),
                  static_cast<unsigned long long>(
                      obs.tracelog()->bytes_written()));
    };
    record("sequential.tracelog", 1, 0);
    record("sharded.tracelog", shard_counts.back(), 0);
    record("perturbed.tracelog", 1, 0x9e3779b97f4a7c15ULL);
  }

  JsonWriter w;
  w.begin_object();
  w.kv("schema", "msgorder.bench.sim_throughput/2");
  w.kv("bench", "sim_throughput");
  w.kv("protocol", "fifo");
  w.kv("n_processes", kProcesses);
  w.kv("n_messages", n_messages);
  w.kv("workload_seed", kWorkloadSeed);
  w.kv("sim_seed", kSimSeed);
  w.kv("hardware_concurrency",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("quick", quick);
  w.kv("reps", reps);
  w.key("network").begin_object();
  w.kv("base_delay", kBaseDelay);
  w.kv("jitter_mean", kJitterMean);
  w.kv("fifo_channels", false);
  w.end_object();
  write_field_meta(w);
  w.key("rows").begin_array();
  const double base_min = base.seconds_min();
  const double base_median = median_of(base.rep_seconds);
  for (const Cell& cell : cells) {
    const double cell_min = cell.seconds_min();
    const double cell_median = median_of(cell.rep_seconds);
    w.begin_object();
    w.kv("shards", cell.shards);
    w.kv("workers", cell.workers_used);
    w.kv("engine", cell.shards_used > 1 ? "sharded" : "sequential");
    w.kv("completed", cell.completed);
    w.kv("seconds", cell_min);
    w.kv("seconds_median", cell_median);
    w.kv("seconds_cv", cv_of(cell.rep_seconds));
    w.kv("reps", reps);
    w.kv("events", cell.events);
    w.kv("events_per_second",
         cell_min > 0 ? static_cast<double>(cell.events) / cell_min : 0.0);
    w.kv("events_per_second_median",
         cell_median > 0 ? static_cast<double>(cell.events) / cell_median
                         : 0.0);
    w.kv("speedup_vs_sequential", cell_min > 0 ? base_min / cell_min : 0.0);
    w.kv("speedup_vs_sequential_median",
         cell_median > 0 ? base_median / cell_median : 0.0);
    w.kv("trace_parity",
         cell.completed && cell.digest == base.digest &&
             cell.events == base.events);
    w.end_object();
  }
  w.end_array();
  w.kv("trace_parity_all", ok);
  w.key("profile");
  profile->write_json(w);
  w.end_object();

  std::string io_error;
  if (!write_text_file(json_path, w.str(), &io_error)) {
    std::printf("could not write %s: %s\n", json_path.c_str(),
                io_error.c_str());
    ok = false;
  } else {
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf("RESULT: %s\n",
              ok ? "all shard counts completed with trace parity"
                 : "FAIL");
  return ok ? 0 : 1;
}
