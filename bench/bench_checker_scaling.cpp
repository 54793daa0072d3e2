// Experiment E4: oracle cost.  The violation-witness search is
// O(|M|^arity) with pruning; the dedicated limit-set checkers are
// polynomial.  Sweeps run size for both.  The google-benchmark sweep
// also times building a random run (BM_RunConstructionClosure, whose
// closure is O(n^2/64) for a run); the JSON report does not.
//
// ISSUE 2: before the google-benchmark sweep runs, a deterministic
// chrono sweep writes BENCH_checker_scaling.json (schema
// msgorder.bench.checker_scaling/3, see DESIGN.md "Observability"):
// per run size, wall time of the offline oracle and the dedicated
// checkers, plus the online monitor's per-event cost and its
// events-to-detection on a violating feed.  ISSUE 3 bumps the schema:
// every timed checker now also reports the seed (naive) implementation
// and the speedup ratio, the pruned and naive monitors run over the
// same simulated feed and the row records their parity (same verdict,
// first witness, and detection event — the sweep exits nonzero on any
// mismatch), and independent (size) cells fan out over a thread pool.
// ISSUE 4 bumps it again: rows carry the pruned monitor's WitnessEngine
// counters (DFS nodes, candidate populations before/after the pair
// filters, prune rate, words scanned) and the incremental X_sync
// checker's implied-edge / splice-row-OR counts.  ISSUE 7 bumps it to
// /4: every timed field becomes the median over --reps repetitions of
// the whole cell, with <field>_min and <field>_cv (coefficient of
// variation) alongside, and a top-level "field_meta" object declares
// each field's diff direction and noise floor for msgorder_stats
// --diff (so CI can gate more fields without false alarms).  Parity is
// asserted across every rep.  /5 added a batched cell timing the
// kPruned monitor at batch_size 8 vs 1 on the causal feed.  /6 drops
// the compiled-automaton cell and its automaton_* fields, together
// with the monitor-automaton compiler they measured.  Replay timing
// (construct once, reset() + refeed per timed call) keeps the measured
// loop above the clock floor.
// Flags (ours are consumed before google-benchmark sees argv):
//   --json <path>   output path (default BENCH_checker_scaling.json)
//   --json-only     write the JSON report and skip the gbench sweep
//   --quick         small sizes only (CI smoke configuration)
//   --threads <n>   sweep worker threads (default: hardware concurrency)
//   --reps <n>      repetitions of every cell (default 1)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/checker/limit_sets.hpp"
#include "src/checker/monitor.hpp"
#include "src/checker/sync_incremental.hpp"
#include "src/checker/violation.hpp"
#include "src/obs/json.hpp"
#include "src/poset/run_generator.hpp"
#include "src/protocols/async.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"
#include "src/util/parallel.hpp"

namespace msgorder {
namespace {

UserRun sized_run(std::size_t n_messages, std::uint64_t seed) {
  Rng rng(seed);
  RandomRunOptions opts;
  opts.n_processes = 6;
  opts.n_messages = n_messages;
  opts.send_bias = 0.7;
  return random_scheduled_run(opts, rng);
}

/// A serial (one sender, in-order delivery) run: violation-free for the
/// causal spec, so oracle timings on it measure the exhaustive search
/// (no early exit on a flagrant witness, which the random async runs
/// above hand to the naive scan almost immediately).
UserRun clean_serial_run(std::size_t n_messages) {
  std::vector<Message> ms(n_messages);
  std::vector<ScheduleStep> sends(n_messages), delivers(n_messages);
  for (std::size_t i = 0; i < n_messages; ++i) {
    ms[i] = {static_cast<MessageId>(i), 0, 1, 0};
    sends[i] = {static_cast<MessageId>(i), UserEventKind::kSend};
    delivers[i] = {static_cast<MessageId>(i), UserEventKind::kDeliver};
  }
  auto run = UserRun::from_schedules(std::move(ms), {sends, delivers});
  return *run;
}

void BM_CausalOracle(benchmark::State& state) {
  const UserRun run =
      sized_run(static_cast<std::size_t>(state.range(0)), 3);
  const ForbiddenPredicate spec = causal_ordering();
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_violation(run, spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CausalOracle)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_DirectCausalChecker(benchmark::State& state) {
  const UserRun run =
      sized_run(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(in_causal(run));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DirectCausalChecker)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity();

void BM_SyncChecker(benchmark::State& state) {
  const UserRun run =
      sized_run(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(in_sync(run));
  }
}
BENCHMARK(BM_SyncChecker)->RangeMultiplier(2)->Range(8, 256);

void BM_CrownOracleArity3(benchmark::State& state) {
  const UserRun run =
      sized_run(static_cast<std::size_t>(state.range(0)), 7);
  const ForbiddenPredicate spec = sync_crown(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_violation(run, spec));
  }
}
BENCHMARK(BM_CrownOracleArity3)->RangeMultiplier(2)->Range(8, 64);

void BM_KWeakerOracleArity4(benchmark::State& state) {
  const UserRun run =
      sized_run(static_cast<std::size_t>(state.range(0)), 9);
  const ForbiddenPredicate spec = k_weaker_causal(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_violation(run, spec));
  }
}
BENCHMARK(BM_KWeakerOracleArity4)->RangeMultiplier(2)->Range(8, 64);

void BM_RunConstructionClosure(benchmark::State& state) {
  Rng rng(11);
  RandomRunOptions opts;
  opts.n_processes = 6;
  opts.n_messages = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_scheduled_run(opts, rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RunConstructionClosure)
    ->RangeMultiplier(2)
    ->Range(8, 512)
    ->Complexity();

/// Micro timer: three sampling windows of up to ~10ms each, keeping the
/// fastest window's per-call time.  Min-of-windows discards scheduler
/// preemptions and frequency dips, which single-window sampling let
/// through — the speedup ratios feed the CI regression gate (ISSUE 4),
/// so they need to be reproducible, not just plausible.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  double best = 1e100;
  for (int window = 0; window < 3; ++window) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t iterations = 0;
    double elapsed = 0;
    do {
      fn();
      ++iterations;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < 0.01 && iterations < 100000);
    best = std::min(best, elapsed / static_cast<double>(iterations));
  }
  return best;
}

/// One (run size) cell of the deterministic sweep; computed on a worker
/// thread, serialized by the caller after the join.
struct ScalingCell {
  std::size_t n_messages = 0;
  double oracle_s = 0, oracle_naive_s = 0;
  double oracle_clean_s = 0, oracle_clean_naive_s = 0;
  double causal_s = 0, causal_naive_s = 0;
  double sync_s = 0, sync_naive_s = 0;
  double incr_sync_s = 0;
  bool incr_sync_agrees = false;
  std::uint64_t incr_implied_edges = 0;
  std::uint64_t incr_splice_row_ors = 0;
  WitnessEngine::Stats engine_stats;
  std::uint64_t monitor_events = 0;
  double monitor_spe = 0, monitor_naive_spe = 0;
  bool monitor_violated = false;
  std::uint64_t monitor_events_to_detection = 0;
  bool monitor_parity_ok = false;
  bool sim_completed = false;
  // Batched re-intersection cell (causal feed).
  double batched_spe = 0, batch1_spe = 0;
  bool batched_verdict_ok = false;
  std::uint64_t batched_searches = 0;
  double batched_prune_rate = 0;
};

/// Per-event replay timing: reset the monitor to its post-construction
/// state and refeed the recorded events under one timer.  A whole-feed
/// replay stays far above the steady_clock floor that a per-event timer
/// would sit on.
template <typename Flush>
double replay_seconds_per_event(
    OnlineMonitor& monitor,
    const std::vector<std::tuple<ProcessId, SystemEvent, double>>& feed,
    Flush&& flush) {
  if (feed.empty()) return 0.0;
  const double per_replay = seconds_per_call([&] {
    monitor.reset();
    for (const auto& [p, e, t] : feed) monitor.on_event(p, e, t);
    flush(monitor);
  });
  return per_replay / static_cast<double>(feed.size());
}

ScalingCell measure_scaling_cell(std::size_t n) {
  ScalingCell cell;
  cell.n_messages = n;
  const UserRun run = sized_run(n, 3);
  const ForbiddenPredicate spec = causal_ordering();

  cell.oracle_s =
      seconds_per_call([&] { (void)find_violation(run, spec); });
  cell.oracle_naive_s =
      seconds_per_call([&] { (void)find_violation_naive(run, spec); });
  const UserRun clean = clean_serial_run(n);
  cell.oracle_clean_s =
      seconds_per_call([&] { (void)find_violation(clean, spec); });
  cell.oracle_clean_naive_s =
      seconds_per_call([&] { (void)find_violation_naive(clean, spec); });
  cell.causal_s = seconds_per_call([&] { (void)in_causal(run); });
  cell.causal_naive_s =
      seconds_per_call([&] { (void)in_causal_naive(run); });
  cell.sync_s = seconds_per_call([&] { (void)in_sync(run); });
  cell.sync_naive_s = seconds_per_call([&] { (void)in_sync_naive(run); });

  // Online monitor cost: feed a raw-async simulation of the same size on
  // a jittered network (causal violations appear quickly) to the pruned
  // and the naive monitor — the same feed, so their verdict, first
  // witness, and detection event must agree — and record per-event wall
  // cost for each.  The incremental X_sync checker rides the same feed.
  Rng rng(17);
  WorkloadOptions wopts;
  wopts.n_processes = 6;
  wopts.n_messages = n;
  wopts.mean_gap = 0.2;
  const Workload workload = random_workload(wopts, rng);
  auto monitor = std::make_shared<OnlineMonitor>(
      workload_universe(workload), spec, MonitorSearchMode::kPruned);
  auto naive_monitor = std::make_shared<OnlineMonitor>(
      workload_universe(workload), spec, MonitorSearchMode::kNaive);
  monitor->enable_timing();
  naive_monitor->enable_timing();
  monitor->set_engine_stats(&cell.engine_stats);
  std::vector<std::tuple<ProcessId, SystemEvent, double>> feed;
  SimOptions sopts;
  sopts.seed = 29;
  sopts.network.jitter_mean = 3.0;
  sopts.observers.add(monitor_observer(monitor));
  sopts.observers.add(monitor_observer(naive_monitor));
  sopts.observers.add([&feed](ProcessId p, SystemEvent e, SimTime t) {
    feed.emplace_back(p, e, t);
  });
  const SimResult result = simulate(workload, AsyncProtocol::factory(),
                                    wopts.n_processes, sopts);

  const auto per_event = [](const OnlineMonitor& m) {
    return m.timed_events() > 0
               ? m.on_event_seconds() / static_cast<double>(m.timed_events())
               : 0.0;
  };
  cell.monitor_events = monitor->events_seen();
  cell.monitor_spe = per_event(*monitor);
  cell.monitor_naive_spe = per_event(*naive_monitor);
  cell.monitor_violated = monitor->violated();
  cell.monitor_events_to_detection = monitor->events_to_detection();
  cell.monitor_parity_ok =
      monitor->violated() == naive_monitor->violated() &&
      monitor->violation_count() == naive_monitor->violation_count() &&
      monitor->events_to_detection() ==
          naive_monitor->events_to_detection() &&
      monitor->first_witness() == naive_monitor->first_witness();
  cell.sim_completed = result.completed;

  // Replay the recorded feed through the incremental checker under the
  // timer, and compare its verdict with the batch oracle on the lifted
  // user run.
  const auto replay = [&] {
    IncrementalSyncChecker incr(n);
    for (const auto& [p, e, t] : feed) incr.on_event(p, e);
    return incr.in_sync();
  };
  cell.incr_sync_s = seconds_per_call(replay);
  const auto lifted = result.trace.to_user_run();
  cell.incr_sync_agrees =
      !lifted.has_value() || replay() == in_sync(*lifted);
  {
    IncrementalSyncChecker incr(n);
    for (const auto& [p, e, t] : feed) incr.on_event(p, e);
    cell.incr_implied_edges = incr.implied_edges();
    cell.incr_splice_row_ors = incr.splice_row_ors();
  }
  monitor->set_engine_stats(nullptr);  // cell outlives the monitor copy

  // ISSUE 8 satellite: batched re-intersection on the same causal feed.
  // One unpinned search per 8 user events instead of one pinned search
  // per event; flush() closes the partial batch before the verdict.
  {
    OnlineMonitor batched(workload_universe(workload), spec,
                          MonitorOptions{MonitorSearchMode::kPruned, 8});
    OnlineMonitor batch1(workload_universe(workload), spec,
                         MonitorOptions{MonitorSearchMode::kPruned, 1});
    WitnessEngine::Stats batched_stats;
    batched.set_engine_stats(&batched_stats);
    for (const auto& [p, e, t] : feed) batched.on_event(p, e, t);
    batched.flush();
    batched.set_engine_stats(nullptr);
    cell.batched_verdict_ok = batched.violated() == monitor->violated();
    cell.batched_searches = batched_stats.searches;
    cell.batched_prune_rate = batched_stats.prune_rate();
    const auto flush_batch = [](OnlineMonitor& m) { m.flush(); };
    const auto no_flush = [](OnlineMonitor&) {};
    cell.batched_spe = replay_seconds_per_event(batched, feed, flush_batch);
    cell.batch1_spe = replay_seconds_per_event(batch1, feed, no_flush);
  }

  return cell;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Coefficient of variation (stddev / mean) across reps — the variance
/// characterization behind the field_meta noise floors.
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

void write_field_meta(JsonWriter& w) {
  const auto field = [&w](const std::string& name, const char* direction,
                          double noise_floor) {
    w.key(name).begin_object();
    w.kv("direction", direction);
    w.kv("noise_floor", noise_floor);
    w.end_object();
  };
  // Min-of-reps values jitter more than the medians on shared runners,
  // hence the wider floors on the _min variants; _cv is informational.
  const auto timed = [&field](const std::string& base, double noise_floor) {
    field(base, "lower", noise_floor);
    field(base + "_min", "lower", noise_floor + 0.15);
    field(base + "_cv", "neutral", 0.0);
  };
  const auto ratio = [&field](const std::string& base, double noise_floor) {
    field(base, "higher", noise_floor);
    field(base + "_min", "higher", noise_floor + 0.15);
    field(base + "_cv", "neutral", 0.0);
  };
  w.key("field_meta").begin_object();
  timed("oracle_seconds", 0.35);
  timed("oracle_seconds_naive", 0.35);
  ratio("oracle_speedup", 0.5);
  timed("oracle_clean_seconds", 0.35);
  timed("oracle_clean_seconds_naive", 0.35);
  ratio("oracle_clean_speedup", 0.5);
  timed("direct_causal_seconds", 0.35);
  timed("direct_causal_seconds_naive", 0.35);
  ratio("direct_causal_speedup", 0.4);
  timed("direct_sync_seconds", 0.35);
  timed("direct_sync_seconds_naive", 0.35);
  ratio("direct_sync_speedup", 0.2);
  timed("incremental_sync_seconds", 0.35);
  timed("monitor_seconds_per_event", 0.35);
  timed("monitor_seconds_per_event_naive", 0.35);
  ratio("monitor_speedup", 0.5);
  timed("monitor_batched_seconds_per_event", 0.35);
  timed("monitor_batch1_seconds_per_event", 0.35);
  ratio("monitor_batched_speedup", 0.5);
  field("reps", "neutral", 0.0);
  w.end_object();
}

/// The deterministic sweep behind BENCH_checker_scaling.json.
int write_scaling_report(const std::string& path, bool quick,
                         std::size_t n_threads, std::size_t reps) {
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16, 32, 64}
            : std::vector<std::size_t>{16, 32, 64, 128, 256};
  if (reps == 0) reps = 1;
  if (n_threads == 0) n_threads = default_sweep_threads(sizes.size() * reps);
  std::vector<std::vector<ScalingCell>> cells(
      sizes.size(), std::vector<ScalingCell>(reps));
  parallel_for(sizes.size() * reps, n_threads, [&](std::size_t j) {
    cells[j / reps][j % reps] = measure_scaling_cell(sizes[j / reps]);
  });

  const auto speedup = [](double naive, double fast) {
    return fast > 0 ? naive / fast : 0.0;
  };
  bool parity_ok = true;
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "msgorder.bench.checker_scaling/6");
  w.kv("bench", "checker_scaling");
  w.kv("n_processes", 6);
  w.kv("spec", causal_ordering().to_string());
  w.kv("monitor_batch_size", 8);
  w.kv("sweep_threads", static_cast<std::uint64_t>(n_threads));
  w.kv("quick", quick);
  w.kv("reps", static_cast<std::uint64_t>(reps));
  write_field_meta(w);
  w.key("rows").begin_array();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::vector<ScalingCell>& rep_cells = cells[i];
    // Everything non-timed is deterministic: identical across reps by
    // construction (fixed seeds), so rep 0 speaks for all — but parity
    // is asserted on every rep.
    const ScalingCell& c = rep_cells.front();
    bool row_parity = true;
    for (const ScalingCell& r : rep_cells) {
      row_parity = row_parity && r.monitor_parity_ok && r.incr_sync_agrees &&
                   r.batched_verdict_ok;
    }
    parity_ok = parity_ok && row_parity;
    // Median over reps is the headline value; _min and _cv ride along.
    const auto stat = [&](const std::string& name, auto getter) {
      std::vector<double> v;
      v.reserve(rep_cells.size());
      for (const ScalingCell& r : rep_cells) v.push_back(getter(r));
      w.kv(name, median_of(v));
      w.kv(name + "_min", min_of(v));
      w.kv(name + "_cv", cv_of(v));
    };
    w.begin_object();
    w.kv("n_messages", c.n_messages);
    stat("oracle_seconds", [](const ScalingCell& r) { return r.oracle_s; });
    stat("oracle_seconds_naive",
         [](const ScalingCell& r) { return r.oracle_naive_s; });
    stat("oracle_speedup", [&](const ScalingCell& r) {
      return speedup(r.oracle_naive_s, r.oracle_s);
    });
    stat("oracle_clean_seconds",
         [](const ScalingCell& r) { return r.oracle_clean_s; });
    stat("oracle_clean_seconds_naive",
         [](const ScalingCell& r) { return r.oracle_clean_naive_s; });
    stat("oracle_clean_speedup", [&](const ScalingCell& r) {
      return speedup(r.oracle_clean_naive_s, r.oracle_clean_s);
    });
    stat("direct_causal_seconds",
         [](const ScalingCell& r) { return r.causal_s; });
    stat("direct_causal_seconds_naive",
         [](const ScalingCell& r) { return r.causal_naive_s; });
    stat("direct_causal_speedup", [&](const ScalingCell& r) {
      return speedup(r.causal_naive_s, r.causal_s);
    });
    stat("direct_sync_seconds",
         [](const ScalingCell& r) { return r.sync_s; });
    stat("direct_sync_seconds_naive",
         [](const ScalingCell& r) { return r.sync_naive_s; });
    stat("direct_sync_speedup", [&](const ScalingCell& r) {
      return speedup(r.sync_naive_s, r.sync_s);
    });
    stat("incremental_sync_seconds",
         [](const ScalingCell& r) { return r.incr_sync_s; });
    w.kv("incremental_sync_agrees", c.incr_sync_agrees);
    w.kv("incremental_sync_implied_edges", c.incr_implied_edges);
    w.kv("incremental_sync_splice_row_ors", c.incr_splice_row_ors);
    w.kv("engine_searches", c.engine_stats.searches);
    w.kv("engine_witnesses", c.engine_stats.witnesses);
    w.kv("engine_dfs_nodes", c.engine_stats.dfs_nodes);
    w.kv("engine_words_scanned", c.engine_stats.words_scanned);
    w.kv("engine_candidates_initial", c.engine_stats.candidates_initial);
    w.kv("engine_candidates_surviving",
         c.engine_stats.candidates_surviving);
    w.kv("engine_enumerated", c.engine_stats.enumerated);
    w.kv("engine_prune_rate", c.engine_stats.prune_rate());
    w.kv("monitor_events", c.monitor_events);
    stat("monitor_seconds_per_event",
         [](const ScalingCell& r) { return r.monitor_spe; });
    stat("monitor_seconds_per_event_naive",
         [](const ScalingCell& r) { return r.monitor_naive_spe; });
    stat("monitor_speedup", [&](const ScalingCell& r) {
      return speedup(r.monitor_naive_spe, r.monitor_spe);
    });
    w.kv("monitor_parity_ok", row_parity);
    w.kv("monitor_violated", c.monitor_violated);
    w.kv("monitor_events_to_detection", c.monitor_events_to_detection);
    stat("monitor_batched_seconds_per_event",
         [](const ScalingCell& r) { return r.batched_spe; });
    stat("monitor_batch1_seconds_per_event",
         [](const ScalingCell& r) { return r.batch1_spe; });
    stat("monitor_batched_speedup", [&](const ScalingCell& r) {
      return speedup(r.batch1_spe, r.batched_spe);
    });
    w.kv("monitor_batched_verdict_ok", c.batched_verdict_ok);
    w.kv("engine_batched_searches", c.batched_searches);
    w.kv("engine_batched_prune_rate", c.batched_prune_rate);
    w.kv("sim_completed", c.sim_completed);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::string error;
  if (!write_text_file(path, w.str(), &error)) {
    std::fprintf(stderr, "could not write %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  if (!parity_ok) {
    std::fprintf(stderr,
                 "monitor parity mismatch: pruned and naive checkers "
                 "disagree (see %s)\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace msgorder

int main(int argc, char** argv) {
  std::string json_path = "BENCH_checker_scaling.json";
  bool json_only = false;
  bool quick = false;
  std::size_t threads = 0;  // 0: pick from hardware concurrency
  std::size_t reps = 1;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  const int report_status =
      msgorder::write_scaling_report(json_path, quick, threads, reps);
  if (json_only || report_status != 0) return report_status;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
