#include "src/verify/report.hpp"

#include "src/obs/tracelog.hpp"
#include "src/protocols/reliable.hpp"
#include "src/verify/execution.hpp"

namespace msgorder {

namespace {

/// The cost counters, with `suffix` appended to each key ("_total" at
/// the top level).
void write_counters(JsonWriter& w, const VerifyCounters& c,
                    const std::string& suffix) {
  const auto kv = [&](const char* key, std::size_t value) {
    w.kv(key + suffix, static_cast<std::uint64_t>(value));
  };
  kv("spec_checks", c.spec_checks);
  kv("spec_memo_hits", c.spec_memo_hits);
  kv("interned_hosts", c.interned_hosts);
  kv("interned_channels", c.interned_channels);
  kv("interned_packets", c.interned_packets);
  kv("interned_history_nodes", c.interned_history_nodes);
  kv("reinterned", c.reinterned);
  kv("restored_hosts", c.restored_hosts);
}

}  // namespace

void write_verify_json(JsonWriter& w,
                       const std::vector<StackReport>& reports,
                       std::size_t n_processes, std::size_t n_messages,
                       const VerifyOptions& options) {
  std::string verdict = "verified";
  std::size_t states_total = 0;
  std::size_t transitions_total = 0;
  VerifyCounters counters_total;
  for (const StackReport& report : reports) {
    states_total += report.states_total;
    transitions_total += report.transitions_total;
    counters_total += report.counters_total;
    if (!report.ok()) {
      verdict = "failed";
    } else if (report.verdict == "bounded" && verdict == "verified") {
      verdict = "bounded";
    }
  }
  w.begin_object();
  w.kv("schema", "msgorder.verify/2");
  w.kv("verdict", verdict);
  w.key("scope").begin_object();
  w.kv("processes", static_cast<std::uint64_t>(n_processes));
  w.kv("messages", static_cast<std::uint64_t>(n_messages));
  w.end_object();
  w.kv("channel_model", to_string(options.channel_model));
  w.kv("por", options.por);
  w.kv("state_cache", options.state_cache);
  w.kv("max_states", static_cast<std::uint64_t>(options.max_states));
  w.kv("states_total", static_cast<std::uint64_t>(states_total));
  w.kv("transitions_total",
       static_cast<std::uint64_t>(transitions_total));
  write_counters(w, counters_total, "_total");
  w.key("stacks").begin_array();
  for (const StackReport& report : reports) {
    w.begin_object();
    w.kv("stack", report.stack);
    w.kv("verdict", report.verdict);
    w.kv("states", static_cast<std::uint64_t>(report.states_total));
    w.kv("transitions",
         static_cast<std::uint64_t>(report.transitions_total));
    write_counters(w, report.counters_total, "");
    w.key("scenarios").begin_array();
    for (const ScenarioResult& s : report.scenarios) {
      w.begin_object();
      w.kv("scenario", s.scenario);
      w.kv("verdict", s.verdict);
      if (!s.detail.empty()) w.kv("detail", s.detail);
      w.kv("states", static_cast<std::uint64_t>(s.states));
      w.kv("transitions", static_cast<std::uint64_t>(s.transitions));
      w.kv("complete_runs",
           static_cast<std::uint64_t>(s.complete_runs));
      w.kv("complete_states",
           static_cast<std::uint64_t>(s.complete_states));
      w.kv("max_depth", static_cast<std::uint64_t>(s.max_depth_seen));
      write_counters(w, s.counters, "");
      if (s.uncached) w.kv("uncached", true);
      if (s.counterexample.has_value()) {
        w.key("counterexample").begin_object();
        w.kv("property", s.counterexample->property);
        w.kv("schedule_length",
             static_cast<std::uint64_t>(
                 s.counterexample->schedule.size()));
        w.key("schedule").begin_array();
        for (const VerifyAction& a : s.counterexample->schedule) {
          w.value(to_string(a));
        }
        w.end_array();
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool replay_counterexample(const Scenario& scenario,
                           const ProtocolFactory& factory,
                           const std::string& stack_name,
                           const VerifyOptions& options,
                           const VerifyCounterexample& counterexample,
                           const std::string& path, std::string* error) {
  ProtocolFactory effective = factory;
  if (options.channel_model == ChannelModel::kLossy) {
    effective = ReliableProtocol::wrap(factory, {});
  }
  Execution exec(scenario, effective, options.channel_model,
                 options.max_drops);
  TraceLogWriter writer(path);
  TraceLogHeader header;
  header.schema = "msgorder.tracelog/1";
  header.engine = "verifier";
  header.protocol = stack_name;
  header.n_processes = scenario.n_processes;
  header.n_messages = scenario.messages.size();
  header.seed = 0;
  header.shards = 1;
  header.workers = 1;
  header.lookahead = 0;
  writer.begin_run(header);
  exec.set_tracelog(&writer);
  // Re-execute from a FRESH reset so the tracelog sees everything,
  // including constructor-time control traffic.
  exec.reset();
  for (const VerifyAction& action : counterexample.schedule) {
    exec.apply(action);
  }
  writer.append(note_record("counterexample (" + counterexample.property +
                                " in scenario " + scenario.name + "): " +
                                counterexample.detail,
                            static_cast<SimTime>(exec.steps())));
  writer.finish();
  if (!writer.ok()) {
    if (error != nullptr) *error = writer.error();
    return false;
  }
  return true;
}

}  // namespace msgorder
