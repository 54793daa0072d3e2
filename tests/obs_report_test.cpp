// Tests for the machine-readable run report (ISSUE 2): schema fields,
// the monitor section's violation witness, and JSON well-formedness —
// plus the monitor's new cost counters the report surfaces.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/checker/monitor.hpp"
#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/obs/report.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/fifo.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"

namespace msgorder {
namespace {

struct ReportedRun {
  SimResult result;
  std::shared_ptr<OnlineMonitor> monitor;
  std::string json;
};

ReportedRun report_for(const ProtocolFactory& factory,
                       const std::string& protocol_name,
                       Observability* obs) {
  Rng rng(31);
  WorkloadOptions wopts;
  wopts.n_processes = 4;
  wopts.n_messages = 60;
  wopts.mean_gap = 0.2;
  const Workload workload = random_workload(wopts, rng);

  auto monitor = std::make_shared<OnlineMonitor>(
      workload_universe(workload), causal_ordering());
  monitor->enable_timing();
  SimOptions sopts;
  sopts.seed = 12;
  sopts.network.jitter_mean = 4.0;
  sopts.observability = obs;
  sopts.observers.add(monitor_observer(monitor));
  SimResult result = simulate(workload, factory, wopts.n_processes, sopts);

  RunReportOptions ropts;
  ropts.protocol = protocol_name;
  ropts.n_processes = wopts.n_processes;
  ropts.seed = sopts.seed;
  std::string json = run_report_json(result, ropts, obs, monitor.get());
  return ReportedRun{std::move(result), std::move(monitor), std::move(json)};
}

TEST(RunReport, ValidJsonWithStableSchemaFields) {
  Observability obs;
  const ReportedRun r =
      report_for(FifoProtocol::factory(), "fifo", &obs);
  ASSERT_TRUE(r.result.completed) << r.result.error;

  std::string error;
  ASSERT_TRUE(json_parse(r.json, &error).has_value())
      << error << "\n" << r.json;
  for (const char* field :
       {"\"schema\":\"msgorder.run_report/1\"", "\"protocol\":\"fifo\"",
        "\"n_processes\":4", "\"seed\":12", "\"completed\":true",
        "\"messages\"", "\"universe\":60", "\"overhead\"",
        "\"user_packets\"", "\"tag_bytes\"", "\"latency\"",
        "\"percentiles\"", "\"monitor\"", "\"events_seen\"",
        "\"metrics\"", "\"counters\"", "\"histograms\""}) {
    EXPECT_NE(r.json.find(field), std::string::npos) << field;
  }
}

TEST(RunReport, ViolatingRunCarriesTheWitness) {
  // The raw async protocol on a heavily jittered network violates causal
  // ordering; the monitor's first witness must appear in the report.
  const ReportedRun r =
      report_for(AsyncProtocol::factory(), "async", nullptr);
  ASSERT_TRUE(r.result.completed) << r.result.error;
  ASSERT_TRUE(r.monitor->violated());

  std::string error;
  ASSERT_TRUE(json_parse(r.json, &error).has_value()) << error;
  EXPECT_NE(r.json.find("\"violated\":true"), std::string::npos);
  EXPECT_NE(r.json.find("\"witness\":[{"), std::string::npos);
  EXPECT_NE(r.json.find("\"var\":\"x\""), std::string::npos);
  EXPECT_NE(r.json.find("\"var\":\"y\""), std::string::npos);
  EXPECT_NE(r.json.find("\"first_violation_time\""), std::string::npos);
  EXPECT_NE(r.json.find("\"specification\""), std::string::npos);
  // Without an Observability attached those sections degrade to null.
  EXPECT_NE(r.json.find("\"percentiles\":null"), std::string::npos);
  EXPECT_NE(r.json.find("\"metrics\":null"), std::string::npos);
}

TEST(RunReport, MonitorCostCountersAreReportedAndSane) {
  const ReportedRun r =
      report_for(AsyncProtocol::factory(), "async", nullptr);
  ASSERT_TRUE(r.result.completed) << r.result.error;

  // 60 messages x 4 system events each.
  EXPECT_EQ(r.monitor->events_seen(), 240u);
  EXPECT_EQ(r.monitor->timed_events(), 240u);
  EXPECT_GT(r.monitor->on_event_seconds(), 0.0);
  ASSERT_TRUE(r.monitor->violated());
  EXPECT_GT(r.monitor->events_to_detection(), 0u);
  EXPECT_LE(r.monitor->events_to_detection(), r.monitor->events_seen());
  EXPECT_NE(r.json.find("\"events_to_detection\""), std::string::npos);
}

TEST(RunReport, CleanRunHasNullWitnessAndPercentiles) {
  Observability obs;
  const ReportedRun r =
      report_for(FifoProtocol::factory(), "fifo", &obs);
  ASSERT_TRUE(r.result.completed) << r.result.error;

  // FIFO on this workload may or may not violate causal ordering; the
  // report must stay well-formed either way, and with an Observability
  // attached the percentiles are real numbers.
  EXPECT_NE(r.json.find("\"percentiles\":{\"p50\":"), std::string::npos);
  if (!r.monitor->violated()) {
    EXPECT_NE(r.json.find("\"witness\":null"), std::string::npos);
    EXPECT_EQ(r.monitor->events_to_detection(), 0u);
  }
}

}  // namespace
}  // namespace msgorder
