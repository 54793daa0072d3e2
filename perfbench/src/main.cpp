// pipeline_bench — the repository's end-to-end benchmark.  One workload
// per process (so peak RSS belongs to it):
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scratch DIR] [--report PATH] [--spans PATH]
//   pipeline_bench --list-metrics
//
// --trace 0 times untraced passes and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced passes, asserts the traced
// cells reproduce the untraced trace digests, and reports the per-layer
// metrics (medians over traced passes) plus trace.overhead_ratio.  The
// last stdout line is always one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "src/obs/json.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
  std::string report;
  std::string spans;
  bool list_metrics = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--report PATH] [--spans PATH]\n"
               "       pipeline_bench --list-metrics\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (arg == "--scratch") {
      args.scratch = value;
    } else if (arg == "--report") {
      args.report = value;
    } else if (arg == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median_of(const std::vector<PassOutcome>& passes,
                 const std::string& key) {
  std::vector<double> values;
  for (const PassOutcome& p : passes) {
    const auto it = p.sample.find(key);
    values.push_back(it == p.sample.end() ? 0.0 : it->second);
  }
  return median(std::move(values));
}

double median_wall(const std::vector<PassOutcome>& passes) {
  std::vector<double> walls;
  for (const PassOutcome& p : passes) walls.push_back(p.wall_s);
  return median(std::move(walls));
}

void write_metrics(msgorder::JsonWriter& w, const std::vector<Metric>& ms) {
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (args.list_metrics) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      std::printf("%s %s\n", name.c_str(), unit.c_str());
    }
    return 0;
  }
  std::unique_ptr<BenchWorkload> workload = make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "pipeline_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return usage();
  }

  const RunContext ctx{args.seed, args.scratch};
  Checks checks;
  // Set up repeatedly and report the median: at least kSetupReps times
  // and kSetupSeconds in total, so millisecond setups are not one noisy
  // sample.
  constexpr std::size_t kSetupReps = 5;
  constexpr std::size_t kMaxSetupReps = 2000;
  constexpr double kSetupSeconds = 0.25;
  std::vector<double> setup_times;
  const auto setup_start = Clock::now();
  while (setup_times.size() < kMaxSetupReps &&
         (setup_times.size() < kSetupReps ||
          seconds_between(setup_start, Clock::now()) < kSetupSeconds)) {
    const auto start = Clock::now();
    workload->setup(ctx);
    setup_times.push_back(seconds_between(start, Clock::now()));
  }

  // Closed loop: passes back to back while the next one, judged by the
  // median of its kind so far, still ends within the time budget (so a
  // run takes setup + at most --seconds, plus one pass of each kind).
  // Traced runs alternate untraced and traced passes so both see the
  // same machine state.
  Tracer tracer;
  std::vector<PassOutcome> untraced;
  std::vector<PassOutcome> traced;
  const auto start = Clock::now();
  int pass_id = 0;
  for (;;) {
    const bool traced_pass = args.trace && traced.size() < untraced.size();
    const std::vector<PassOutcome>& kind = traced_pass ? traced : untraced;
    if (!kind.empty()) {
      std::vector<double> whole;  // pass time including sharded cells
      for (const PassOutcome& p : kind) {
        whole.push_back(p.wall_s + p.sharded_s);
      }
      if (seconds_between(start, Clock::now()) + median(whole) >
          args.seconds) {
        break;
      }
    }
    tracer.set_pass(pass_id++);
    PassOutcome out =
        workload->pass(ctx, traced_pass ? &tracer : nullptr, checks);
    if (traced_pass) {
      const auto& reference = untraced.front().digests;
      checks.expect(out.digests == reference,
                    "traced pass reproduces the untraced trace digests");
      traced.push_back(std::move(out));
    } else {
      untraced.push_back(std::move(out));
    }
  }

  const double failed_share = static_cast<double>(checks.failed()) /
                              static_cast<double>(checks.attempted());
  const PassOutcome& first = untraced.front();
  const auto sample_value = [&first](const std::string& key) {
    const auto it = first.sample.find(key);
    return it == first.sample.end() ? 0.0 : it->second;
  };
  const double wall_s = median_wall(untraced);

  // The gated end-to-end metrics, then the ones printed beside them;
  // the simulated-unit ones are deterministic at a fixed seed.
  const std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_times), "s"},
      {"wall_s", wall_s, "s"},
      {"events_per_s", first.events / wall_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const std::vector<Metric> reported = {
      {"tag_bytes_per_msg", sample_value("tag_bytes_per_msg"), "B/msg"},
      {"ctrl_pkts_per_msg", sample_value("ctrl_pkts_per_msg"), "pkts/msg"},
      {"latency_p50_sim", sample_value("latency_p50_sim"), "sim_t"},
      {"latency_p99_sim", sample_value("latency_p99_sim"), "sim_t"},
      {"failed_share", failed_share, "ratio"},
  };

  // Cell wall times come from the untraced passes of the same run:
  // tracing slows the cells it instruments (with the profiler attached
  // the sharded engine merge-replays every event), so their traced
  // times would not describe the program.
  const std::set<std::string> from_untraced = {
      "sim.seq_s",      "sim.auto_s", "sim.auto_speedup",
      "obs.observed_s", "obs.self_s", "obs.overhead_ratio"};
  std::vector<Metric> per_layer;
  if (args.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      double value = median_of(
          from_untraced.count(name) != 0 ? untraced : traced, name);
      if (name == "trace.overhead_ratio") {
        value = median_wall(traced) / wall_s;
      } else if (name == "failed_share") {
        value = failed_share;
      }
      per_layer.push_back({name, value, unit});
    }
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("workload %s  seed %llu  trace %d  nproc %ld  "
              "hardware_concurrency %u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              nproc, hw);
  for (const auto& [key, value] : first.sample) {
    if (key.rfind("cell.", 0) == 0) {
      std::printf("  %-40s %g\n", key.c_str(), value);
    }
  }
  std::printf("  %-40s %zu untraced, %zu traced\n", "passes", untraced.size(),
              traced.size());
  for (const std::vector<Metric>* group :
       std::initializer_list<const std::vector<Metric>*>{
           &end_to_end, &reported, &per_layer}) {
    for (const Metric& m : *group) {
      std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  if (!args.report.empty()) {
    msgorder::JsonWriter w;
    w.begin_object();
    w.kv("schema", "perfbench.report/1");
    w.kv("workload", args.workload);
    w.kv("seed", static_cast<std::uint64_t>(args.seed));
    w.kv("trace", args.trace);
    w.kv("nproc", static_cast<std::int64_t>(nproc));
    w.kv("hardware_concurrency", hw);
    w.kv("attempted", checks.attempted());
    w.kv("failed", checks.failed());
    w.key("setup_s").begin_array();
    for (const double t : setup_times) w.value(t);
    w.end_array();
    for (const auto& [label, passes] :
         {std::pair{"untraced_passes", &untraced},
          std::pair{"traced_passes", &traced}}) {
      w.key(label).begin_array();
      for (const PassOutcome& p : *passes) {
        w.begin_object();
        w.kv("wall_s", p.wall_s);
        w.kv("events", p.events);
        w.key("sample").begin_object();
        for (const auto& [key, value] : p.sample) w.kv(key, value);
        w.end_object();
        w.end_object();
      }
      w.end_array();
    }
    w.key("end_to_end");
    write_metrics(w, end_to_end);
    w.key("reported");
    write_metrics(w, reported);
    w.key("per_layer");
    write_metrics(w, per_layer);
    w.end_object();
    std::string error;
    if (!msgorder::write_text_file(args.report, w.str() + "\n", &error)) {
      std::fprintf(stderr, "pipeline_bench: %s\n", error.c_str());
    }
  }
  if (args.trace && !args.spans.empty()) {
    std::string error;
    if (!tracer.write_json(args.spans, &error)) {
      std::fprintf(stderr, "pipeline_bench: %s\n", error.c_str());
    }
  }

  msgorder::JsonWriter w;
  w.begin_object();
  w.kv("correct", checks.failed() == 0);
  w.kv("attempted", checks.attempted());
  w.kv("failed", checks.failed());
  w.key("metrics");
  write_metrics(w, args.trace ? per_layer : end_to_end);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return checks.failed() == 0 ? 0 : 1;
}
