// The four workloads of the pipeline benchmark.  Each drives the public
// API of src/ as a closed batch job: a pre-generated invoke schedule
// (Poisson per process in simulated time) runs to completion, then its
// outputs are checked.  Sizes and the reason each workload exists are
// in perfbench/README.md.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/fifo_oracle.hpp"
#include "src/checker/limit_sets.hpp"
#include "src/checker/monitor.hpp"
#include "src/checker/violation.hpp"
#include "src/obs/observability.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"
#include "src/verify/scenario.hpp"
#include "src/verify/stacks.hpp"
#include "src/verify/verifier.hpp"

namespace perfbench {

using namespace msgorder;

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

namespace {

/// Metric-name form of a stack or verify target ("synth:causal" ->
/// "synth.causal").
std::string metric_name(std::string name) {
  std::replace(name.begin(), name.end(), ':', '.');
  return name;
}

/// Order-sensitive digest of a full trace: every per-process log entry
/// (message, kind, exact time bits) plus the packet counters.
std::uint64_t trace_digest(const Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
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

std::uint64_t trace_events(const Trace& trace) {
  std::uint64_t n = 0;
  for (const auto& log : trace.logs()) n += log.size();
  return n;
}

/// An independent 64-bit seed for `stream`, derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + stream);
  rng();
  return rng();
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

// Seed streams: the run seed alone determines every input.
constexpr std::uint64_t kWorkloadStream = 1;
constexpr std::uint64_t kSimStream = 2;
constexpr std::uint64_t kScaleStream = 3;
constexpr std::uint64_t kScenarioStream = 16;  // + scenario index

std::size_t max_events_for(std::size_t n_messages) {
  return n_messages * 64 + 1'000'000;
}

Workload make_schedule(std::uint64_t seed, std::size_t n_processes,
                       std::size_t n_messages, double red_fraction) {
  Rng rng(derive_seed(seed, kWorkloadStream));
  WorkloadOptions options;
  options.n_processes = n_processes;
  options.n_messages = n_messages;
  options.red_fraction = red_fraction;
  return random_workload(options, rng);
}

void add(Sample& sample, const std::string& key, double value) {
  sample[key] += value;
}

/// Host facts recorded beside every simulated cell.
void record_cell(Sample& sample, const std::string& cell,
                 const SimResult& result) {
  sample["cell." + cell + ".shards_used"] =
      static_cast<double>(result.shards_used);
  sample["cell." + cell + ".workers_used"] =
      static_cast<double>(result.workers_used);
}

/// Times `fn` and, when traced, records it as a span.  Returns seconds.
template <typename Fn>
double timed_call(Tracer* tracer, const std::string& span, Fn&& fn) {
  ScopedSpan scoped(tracer, span);
  const auto start = Clock::now();
  fn();
  return seconds_between(start, Clock::now());
}

/// Counters every simulated cell of a pass feeds.
struct PassTotals {
  double events = 0;
  double user_packets = 0;
  double control_packets = 0;
  double control_bytes = 0;
  double tag_bytes = 0;
  std::vector<double> latencies;

  void add_trace(const Trace& trace) {
    events += static_cast<double>(trace_events(trace));
    user_packets += static_cast<double>(trace.user_packets());
    control_packets += static_cast<double>(trace.control_packets());
    control_bytes += static_cast<double>(trace.control_bytes());
    tag_bytes += static_cast<double>(trace.tag_bytes());
  }

  void add_latencies(const Trace& trace) {
    for (const Message& m : trace.universe()) {
      const MessageTimes& t = trace.times(m.id);
      if (t.invoke && t.deliver) latencies.push_back(t.latency());
    }
  }

  void finish(PassOutcome& out) {
    out.events = events;
    Sample& s = out.sample;
    s["sim.events"] = events;
    s["net.user_packets"] = user_packets;
    s["net.control_packets"] = control_packets;
    s["net.control_bytes"] = control_bytes;
    s["net.tag_bytes"] = tag_bytes;
    if (user_packets > 0) {
      s["tag_bytes_per_msg"] = tag_bytes / user_packets;
      s["ctrl_pkts_per_msg"] = control_packets / user_packets;
    }
    s["latency_p50_sim"] = percentile(latencies, 0.50);
    s["latency_p99_sim"] = percentile(latencies, 0.99);
  }
};

/// One simulate() call.  Traced, the stack runs behind the timing proxy
/// and every monitor observer is timed; the folded totals become
/// aggregate children of the cell's span.
struct Cell {
  std::optional<SimResult> result;
  double wall_s = 0;
  HookTotals hooks;
  ObserverTotals monitors;

  /// The engine's own share of the call: minus protocol self time and
  /// monitor time (monitors run inside Host calls or between hooks).
  double engine_self_s() const {
    return wall_s - hooks.self_s() - monitors.seconds;
  }
};

Cell run_cell(Tracer* tracer, const std::string& span,
              const Workload& workload, const ProtocolFactory& factory,
              std::size_t n_processes, SimOptions options,
              const std::vector<std::shared_ptr<OnlineMonitor>>& monitors) {
  Cell cell;
  std::optional<TimedStack> timed;
  if (tracer != nullptr) timed.emplace(factory);
  for (const auto& monitor : monitors) {
    SimObserver observer = monitor_observer(monitor);
    if (tracer != nullptr) {
      observer = timed_observer(std::move(observer), &cell.monitors);
    }
    options.observers.add(std::move(observer));
  }
  ScopedSpan scoped(tracer, span);
  const auto start = Clock::now();
  cell.result = simulate(workload, timed ? timed->factory() : factory,
                         n_processes, options);
  cell.wall_s = seconds_between(start, Clock::now());
  if (tracer != nullptr) {
    cell.hooks = timed->totals();
    tracer->aggregate("protocols.self", cell.hooks.self_s(),
                      cell.hooks.hooks);
    if (!monitors.empty()) {
      tracer->aggregate("checker.monitor", cell.monitors.seconds,
                        cell.monitors.events);
    }
  }
  return cell;
}

void expect_completed(Checks& checks, const Cell& cell,
                      const std::string& what) {
  checks.expect(cell.result->completed,
                what + " completed" +
                    (cell.result->error.empty() ? ""
                                                : ": " + cell.result->error));
}

/// Folds a traced cell's proxy totals into the per-stack sample keys.
void add_protocol_time(Sample& s, const std::string& stack,
                       const Cell& cell) {
  add(s, "protocols.self_s." + stack, cell.hooks.self_s());
  add(s, "protocols.self_s", cell.hooks.self_s());
}

void add_profile(Sample& s, const Observability& obs) {
  const SimProfile* profile = obs.profile();
  add(s, "sim.windows", static_cast<double>(profile->windows()));
  add(s, "sim.stall_lookahead",
      static_cast<double>(profile->total_stall_lookahead()));
  add(s, "sim.stall_empty", static_cast<double>(profile->total_stall_empty()));
  add(s, "sim.stall_backpressure",
      static_cast<double>(profile->total_stall_backpressure()));
  for (std::size_t w = 0; w < profile->worker_count(); ++w) {
    add(s, "sim.barrier_wait_s", profile->worker(w).barrier_wait_seconds);
  }
}

/// A sequential cell and its auto-sharded twin on the same inputs: the
/// sim.seq_s / sim.auto_s pair, with a digest-parity check.  Traced, the
/// auto cell also carries the engine profiler.
void run_shard_pair(Tracer* tracer, const std::string& stack,
                    const Workload& workload, const ProtocolFactory& factory,
                    std::size_t n_processes, const SimOptions& base,
                    Checks& checks, PassTotals& totals, PassOutcome& out) {
  Sample& s = out.sample;
  std::uint64_t seq_digest = 0;
  {
    SimOptions seq_options = base;
    seq_options.shards = 1;
    const Cell seq = run_cell(tracer, "simulate." + stack + ".seq", workload,
                              factory, n_processes, seq_options, {});
    expect_completed(checks, seq, stack + " seq");
    totals.add_trace(seq.result->trace);
    totals.add_latencies(seq.result->trace);
    seq_digest = trace_digest(seq.result->trace);
    out.digests.push_back(seq_digest);
    record_cell(s, stack + ".seq", *seq.result);
    add(s, "sim.seq_s", seq.wall_s);
    add(s, "sim.engine_self_s", seq.engine_self_s());
    add_protocol_time(s, stack, seq);
  }

  SimOptions auto_options = base;
  auto_options.shards = 0;
  std::optional<Observability> profiler;
  if (tracer != nullptr) {
    ObservabilityOptions profiling;
    profiling.attribution = false;
    profiling.profiling = true;
    profiler.emplace(profiling);
    auto_options.observability = &*profiler;
  }
  const Cell sharded = run_cell(tracer, "simulate." + stack + ".auto",
                                workload, factory, n_processes, auto_options,
                                {});
  expect_completed(checks, sharded, stack + " auto");
  out.sharded_s += sharded.wall_s;
  const std::uint64_t auto_digest = trace_digest(sharded.result->trace);
  out.digests.push_back(auto_digest);
  checks.expect(auto_digest == seq_digest,
                stack + " auto-sharded trace equals the sequential trace");
  record_cell(s, stack + ".auto", *sharded.result);
  add(s, "sim.auto_s", sharded.wall_s);
  add_protocol_time(s, stack, sharded);
  if (profiler) add_profile(s, *profiler);
}

void finish_shard_pairs(Sample& s) {
  if (s.count("sim.auto_s") != 0 && s["sim.auto_s"] > 0) {
    s["sim.auto_speedup"] = s["sim.seq_s"] / s["sim.auto_s"];
  }
}

// --------------------------------------------------------------------
// flagship_1m: the FIFO stack at the repository's flagship 1M scale.

class Flagship final : public BenchWorkload {
 public:
  static constexpr std::size_t kProcesses = 32;
  static constexpr std::size_t kMessages = 1'000'000;

  void setup(const RunContext& ctx) override {
    schedule_.clear();
    schedule_.shrink_to_fit();
    schedule_ = make_schedule(ctx.seed, kProcesses, kMessages, 0.0);
    options_ = SimOptions{};
    options_.seed = derive_seed(ctx.seed, kSimStream);
    options_.network.base_delay = 10.0;
    options_.network.jitter_mean = 2.0;
    options_.max_events = max_events_for(kMessages);
  }

  PassOutcome pass(const RunContext& ctx, Tracer* tracer,
                   Checks& checks) override {
    const auto start = Clock::now();
    PassOutcome out;
    PassTotals totals;
    Sample& s = out.sample;
    const ProtocolFactory factory = FifoProtocol::factory();

    run_shard_pair(tracer, "fifo", schedule_, factory, kProcesses, options_,
                   checks, totals, out);
    const std::uint64_t seq_digest = out.digests.front();

    // The sequential trace is gone by now; the observed cell reproduces
    // it bit for bit (digest-checked), so the oracle runs on that one.
    const std::string log_path =
        (std::filesystem::path(ctx.scratch_dir) / "flagship.tracelog")
            .string();
    {
      ObservabilityOptions obs_options;
      obs_options.attribution = true;
      obs_options.tracelog = log_path;
      Observability obs(obs_options);
      SimOptions observed = options_;
      observed.observability = &obs;
      const Cell cell = run_cell(tracer, "simulate.fifo.observed", schedule_,
                                 factory, kProcesses, observed, {});
      expect_completed(checks, cell, "fifo observed");
      const Trace& trace = cell.result->trace;
      totals.add_trace(trace);
      const std::uint64_t digest = trace_digest(trace);
      out.digests.push_back(digest);
      checks.expect(digest == seq_digest,
                    "observed trace equals the sequential trace");
      std::optional<std::string> violation;
      timed_call(tracer, "fifo_oracle",
                 [&] { violation = fifo_violation(trace); });
      checks.expect(!violation.has_value(),
                    "flagship run is FIFO: " + violation.value_or(""));
      record_cell(s, "fifo.observed", *cell.result);
      add(s, "obs.observed_s", cell.wall_s);
      add_protocol_time(s, "fifo", cell);
      s["obs.tracelog_bytes"] =
          static_cast<double>(obs.tracelog()->bytes_written());
      s["protocols.tag_bytes_per_msg.fifo"] = trace.mean_tag_bytes();
    }
    std::error_code ec;
    std::filesystem::remove(log_path, ec);

    s["obs.self_s"] = s["obs.observed_s"] - s["sim.seq_s"];
    s["obs.overhead_ratio"] = s["obs.observed_s"] / s["sim.seq_s"];
    finish_shard_pairs(s);
    totals.finish(out);
    out.wall_s = seconds_between(start, Clock::now()) - out.sharded_s;
    return out;
  }

 private:
  Workload schedule_;
  SimOptions options_;
};

// --------------------------------------------------------------------
// tagged_1k and general_ctrl(a): registry stacks through the whole
// checking pipeline — simulate with online monitors, lift, satisfies,
// finest limit set.

enum class StackClass { kTagged, kCausal, kGeneral };

struct CheckedStack {
  RegisteredProtocol protocol;
  StackClass cls = StackClass::kTagged;
};

std::vector<CheckedStack> registry_stacks(bool general) {
  std::vector<CheckedStack> stacks;
  for (RegisteredProtocol& rp : standard_protocols()) {
    StackClass cls = StackClass::kTagged;
    if (rp.name.rfind("sync-", 0) == 0) {
      cls = StackClass::kGeneral;
    } else if (rp.name.rfind("causal-", 0) == 0) {
      cls = StackClass::kCausal;
    }
    if ((cls == StackClass::kGeneral) == general) {
      stacks.push_back({std::move(rp), cls});
    }
  }
  return stacks;
}

void run_checked_stack(Tracer* tracer, const CheckedStack& stack,
                       const Workload& schedule,
                       const std::vector<Message>& universe,
                       std::size_t n_processes, const SimOptions& base,
                       Checks& checks, PassTotals& totals, PassOutcome& out) {
  Sample& s = out.sample;
  const std::string name = metric_name(stack.protocol.name);
  const CompositeSpec& spec = stack.protocol.spec;

  std::vector<std::shared_ptr<OnlineMonitor>> monitors;
  const double monitor_setup_s = timed_call(tracer, "monitors." + name, [&] {
    for (const ForbiddenPredicate& predicate : spec.predicates) {
      monitors.push_back(std::make_shared<OnlineMonitor>(
          universe, predicate,
          MonitorOptions{MonitorSearchMode::kAutomaton, 1}));
    }
  });
  double compiled = 0;
  for (const auto& monitor : monitors) {
    compiled += monitor->automaton_info().compiled ? 1 : 0;
  }
  add(s, "spec.predicates", static_cast<double>(monitors.size()));
  add(s, "spec.compiled", compiled);

  SimOptions options = base;
  options.shards = 1;
  const Cell cell = run_cell(tracer, "simulate." + name, schedule,
                             stack.protocol.factory, n_processes, options,
                             monitors);
  expect_completed(checks, cell, name);
  const Trace& trace = cell.result->trace;
  totals.add_trace(trace);
  totals.add_latencies(trace);
  out.digests.push_back(trace_digest(trace));
  record_cell(s, name, *cell.result);
  add(s, "sim.engine_self_s", cell.engine_self_s());
  add_protocol_time(s, name, cell);
  s["protocols.tag_bytes_per_msg." + name] = trace.mean_tag_bytes();
  const double monitor_s = monitor_setup_s + cell.monitors.seconds;
  s["checker.monitor_s." + name] = monitor_s;
  add(s, "checker.self_s", monitor_s);
  add(s, "checker.monitor_calls", static_cast<double>(cell.monitors.events));
  add(s, "checker.monitor_on_event_s", cell.monitors.seconds);

  bool monitors_clean = true;
  for (const auto& monitor : monitors) {
    monitors_clean = monitors_clean && !monitor->violated();
  }
  checks.expect(monitors_clean, name + ": online monitors see no violation");
  if (stack.cls != StackClass::kGeneral) {
    checks.expect(trace.control_packets() == 0,
                  name + " sends no control packets");
  }

  std::optional<UserRun> run;
  const double lift_s = timed_call(tracer, "to_user_run." + name,
                                   [&] { run = trace.to_user_run(); });
  s["poset.lift_s." + name] = lift_s;
  add(s, "poset.lift_s", lift_s);
  if (!checks.expect(run.has_value(), name + " lifts to a user run")) return;

  bool in_spec = false;
  const double satisfies_s = timed_call(
      tracer, "satisfies." + name, [&] { in_spec = satisfies(*run, spec); });
  s["checker.satisfies_s." + name] = satisfies_s;
  add(s, "checker.self_s", satisfies_s);
  checks.expect(in_spec && monitors_clean,
                name + ": offline and online verdicts agree the run is in "
                       "its spec");

  LimitSet limit = LimitSet::kAsync;
  const double limit_s =
      timed_call(tracer, "finest_limit_set." + name,
                 [&] { limit = finest_limit_set(*run); });
  add(s, "checker.limit_set_s", limit_s);
  add(s, "checker.self_s", limit_s);
  if (stack.cls == StackClass::kCausal) {
    checks.expect(limit != LimitSet::kAsync, name + " run lies in X_co");
  } else if (stack.cls == StackClass::kGeneral) {
    checks.expect(limit == LimitSet::kSync, name + " run lies in X_sync");
  }
}

void finish_checked(Sample& s) {
  if (s["spec.predicates"] > 0) {
    s["spec.automaton_hit_ratio"] = s["spec.compiled"] / s["spec.predicates"];
  }
  if (s["checker.monitor_calls"] > 0) {
    s["checker.monitor_ns_per_event"] =
        1e9 * s["checker.monitor_on_event_s"] / s["checker.monitor_calls"];
  }
}

SimOptions checked_options(std::uint64_t seed, std::size_t n_messages) {
  SimOptions options;
  options.seed = derive_seed(seed, kSimStream);
  options.max_events = max_events_for(n_messages);
  return options;
}

class TaggedStacks final : public BenchWorkload {
 public:
  static constexpr std::size_t kProcesses = 16;
  static constexpr std::size_t kMessages = 1000;
  static constexpr double kRedFraction = 0.05;

  void setup(const RunContext& ctx) override {
    schedule_ = make_schedule(ctx.seed, kProcesses, kMessages, kRedFraction);
    universe_ = workload_universe(schedule_);
    stacks_ = registry_stacks(false);
    options_ = checked_options(ctx.seed, kMessages);
  }

  PassOutcome pass(const RunContext&, Tracer* tracer,
                   Checks& checks) override {
    const auto start = Clock::now();
    PassOutcome out;
    PassTotals totals;
    for (const CheckedStack& stack : stacks_) {
      run_checked_stack(tracer, stack, schedule_, universe_, kProcesses,
                        options_, checks, totals, out);
    }
    finish_checked(out.sample);
    totals.finish(out);
    out.wall_s = seconds_between(start, Clock::now());
    return out;
  }

 private:
  Workload schedule_;
  std::vector<Message> universe_;
  std::vector<CheckedStack> stacks_;
  SimOptions options_;
};

class GeneralControl final : public BenchWorkload {
 public:
  static constexpr std::size_t kProcesses = 16;
  static constexpr std::size_t kCheckedMessages = 400;
  // (b) runs 5,000 messages: at 20,000 its auto-sharded cells, mostly
  // barrier waits, took 2-13 s a pass on a contended host and left room
  // for too few passes per run.
  static constexpr std::size_t kScaleMessages = 5'000;
  static constexpr double kRedFraction = 0.05;

  void setup(const RunContext& ctx) override {
    checked_ = make_schedule(ctx.seed, kProcesses, kCheckedMessages,
                             kRedFraction);
    universe_ = workload_universe(checked_);
    scale_ = make_schedule(derive_seed(ctx.seed, kScaleStream), kProcesses,
                           kScaleMessages, kRedFraction);
    stacks_ = registry_stacks(true);
    checked_options_ = checked_options(ctx.seed, kCheckedMessages);
    scale_options_ = checked_options(ctx.seed, kScaleMessages);
  }

  PassOutcome pass(const RunContext&, Tracer* tracer,
                   Checks& checks) override {
    const auto start = Clock::now();
    PassOutcome out;
    PassTotals totals;
    for (const CheckedStack& stack : stacks_) {
      run_checked_stack(tracer, stack, checked_, universe_, kProcesses,
                        checked_options_, checks, totals, out);
    }
    for (const CheckedStack& stack : stacks_) {
      run_shard_pair(tracer, metric_name(stack.protocol.name), scale_,
                     stack.protocol.factory, kProcesses, scale_options_,
                     checks, totals, out);
    }
    finish_checked(out.sample);
    finish_shard_pairs(out.sample);
    totals.finish(out);
    out.wall_s = seconds_between(start, Clock::now()) - out.sharded_s;
    return out;
  }

 private:
  Workload checked_;
  Workload scale_;
  std::vector<Message> universe_;
  std::vector<CheckedStack> stacks_;
  SimOptions checked_options_;
  SimOptions scale_options_;
};

// --------------------------------------------------------------------
// verify_4x6: exhaustive verification of every target at 4 x 6.

class VerifyScope final : public BenchWorkload {
 public:
  static constexpr std::size_t kProcesses = 4;
  static constexpr std::size_t kMessages = 6;
  // Seeded random scenarios ride along at a smaller scope: one at 4 x 6
  // would add 10-25% to the state count depending on the seed, and the
  // end-to-end figures must not swing with the seed.
  static constexpr std::size_t kRandomScenarios = 4;
  static constexpr std::size_t kRandomProcesses = 3;
  static constexpr std::size_t kRandomMessages = 5;

  void setup(const RunContext& ctx) override {
    targets_ = verify_targets(true);
    scenarios_ = standard_scenarios(kProcesses, kMessages);
    for (std::size_t k = 0; k < kRandomScenarios; ++k) {
      scenarios_.push_back(
          random_scenario(kRandomProcesses, kRandomMessages,
                          derive_seed(ctx.seed, kScenarioStream + k)));
    }
  }

  PassOutcome pass(const RunContext&, Tracer* tracer,
                   Checks& checks) override {
    const auto start = Clock::now();
    PassOutcome out;
    Sample& s = out.sample;
    double states = 0;
    double verify_s = 0;
    for (const VerifyTarget& target : targets_) {
      const std::string name = metric_name(target.name);
      std::optional<StackReport> report;
      const double seconds =
          timed_call(tracer, "verify_stack." + name, [&] {
            report = verify_stack(target.name, target.factory, target.spec,
                                  scenarios_, VerifyOptions{});
          });
      s["verify.s." + name] = seconds;
      verify_s += seconds;
      states += static_cast<double>(report->states_total);
      add(s, "verify.transitions",
          static_cast<double>(report->transitions_total));
      bool uncached = false;
      for (const ScenarioResult& r : report->scenarios) {
        add(s, "verify.complete_runs", static_cast<double>(r.complete_runs));
        uncached = uncached || r.uncached;
      }
      add(s, "verify.uncached_targets", uncached ? 1 : 0);
      checks.expect(report->verdict == target.expected_verdict,
                    target.name + " verdict " + report->verdict +
                        " (expected " + target.expected_verdict + ")");
    }
    s["verify.states"] = states;
    s["verify.self_s"] = verify_s;
    s["verify.states_per_s"] = verify_s > 0 ? states / verify_s : 0;
    out.events = s["verify.transitions"];
    out.wall_s = seconds_between(start, Clock::now());
    return out;
  }

 private:
  std::vector<VerifyTarget> targets_;
  std::vector<Scenario> scenarios_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_workload(const std::string& name) {
  if (name == "flagship_1m") return std::make_unique<Flagship>();
  if (name == "tagged_1k") return std::make_unique<TaggedStacks>();
  if (name == "general_ctrl") return std::make_unique<GeneralControl>();
  if (name == "verify_4x6") return std::make_unique<VerifyScope>();
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::string> stacks;
  for (const RegisteredProtocol& rp : standard_protocols()) {
    stacks.push_back(metric_name(rp.name));
  }
  std::vector<std::pair<std::string, std::string>> m = {
      {"sim.seq_s", "s"},
      {"sim.auto_s", "s"},
      {"sim.auto_speedup", "ratio"},
      {"sim.engine_self_s", "s"},
      {"sim.events", "count"},
      {"sim.windows", "count"},
      {"sim.stall_lookahead", "count"},
      {"sim.stall_empty", "count"},
      {"sim.stall_backpressure", "count"},
      {"sim.barrier_wait_s", "s"},
      {"net.user_packets", "count"},
      {"net.control_packets", "count"},
      {"net.control_bytes", "B"},
      {"net.tag_bytes", "B"},
      {"protocols.self_s", "s"},
  };
  for (const auto& s : stacks) m.push_back({"protocols.self_s." + s, "s"});
  for (const auto& s : stacks) {
    m.push_back({"protocols.tag_bytes_per_msg." + s, "B/msg"});
  }
  m.push_back({"poset.lift_s", "s"});
  for (const auto& s : stacks) m.push_back({"poset.lift_s." + s, "s"});
  m.push_back({"checker.self_s", "s"});
  for (const auto& s : stacks) m.push_back({"checker.monitor_s." + s, "s"});
  m.push_back({"checker.monitor_ns_per_event", "ns"});
  for (const auto& s : stacks) m.push_back({"checker.satisfies_s." + s, "s"});
  m.push_back({"checker.limit_set_s", "s"});
  m.push_back({"spec.automaton_hit_ratio", "ratio"});
  m.push_back({"obs.self_s", "s"});
  m.push_back({"obs.observed_s", "s"});
  m.push_back({"obs.overhead_ratio", "ratio"});
  m.push_back({"obs.tracelog_bytes", "B"});
  m.push_back({"verify.self_s", "s"});
  for (const VerifyTarget& t : verify_targets(true)) {
    m.push_back({"verify.s." + metric_name(t.name), "s"});
  }
  m.push_back({"verify.states", "count"});
  m.push_back({"verify.transitions", "count"});
  m.push_back({"verify.complete_runs", "count"});
  m.push_back({"verify.states_per_s", "1/s"});
  m.push_back({"verify.uncached_targets", "count"});
  m.push_back({"trace.overhead_ratio", "ratio"});
  m.push_back({"tag_bytes_per_msg", "B/msg"});
  m.push_back({"ctrl_pkts_per_msg", "pkts/msg"});
  m.push_back({"latency_p50_sim", "sim_t"});
  m.push_back({"latency_p99_sim", "sim_t"});
  m.push_back({"failed_share", "ratio"});
  return m;
}

}  // namespace perfbench
