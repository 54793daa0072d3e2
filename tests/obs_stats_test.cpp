// Tests for the msgorder_stats analysis core (ISSUE 4): the JSON
// reader, artifact summaries, and the threshold diff that backs the CI
// bench gate.  The diff rendering is compared against golden text —
// the CLI is a thin argv wrapper over exactly these functions.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/obs/json_value.hpp"
#include "src/obs/stats.hpp"

namespace msgorder {
namespace {

TEST(JsonParse, RoundTripsScalarsContainersAndEscapes) {
  std::string error;
  const auto doc = json_parse(
      "{\"a\": [1, -2.5, 3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"q\\\"\\\\\\n\\u0041\"}",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), -2.5);
  EXPECT_DOUBLE_EQ(a->as_array()[2].as_number(), 300);
  const JsonValue* b = doc->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->bool_at("c"), true);
  ASSERT_NE(b->find("d"), nullptr);
  EXPECT_TRUE(b->find("d")->is_null());
  EXPECT_EQ(doc->string_at("s").value_or(""), "q\"\\\nA");
}

TEST(JsonParse, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\":}", &error).has_value());
  EXPECT_FALSE(json_parse("[1, 2", &error).has_value());
  EXPECT_FALSE(json_parse("{\"a\":1} x", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_FALSE(json_parse("", &error).has_value());
  EXPECT_FALSE(json_parse("{'a':1}", &error).has_value());
}

TEST(FlattenNumeric, KeysBenchRowsBySemanticIdentity) {
  const auto doc = json_parse(
      "{\"x\": 1, \"rows\": ["
      "{\"n_messages\": 16, \"v\": 2},"
      "{\"protocol\": \"fifo\", \"v\": 3},"
      "{\"v\": 4}]}");
  ASSERT_TRUE(doc.has_value());
  std::map<std::string, double> leaves;
  flatten_numeric(*doc, "", leaves);
  EXPECT_DOUBLE_EQ(leaves.at("x"), 1);
  EXPECT_DOUBLE_EQ(leaves.at("rows[n=16].v"), 2);
  EXPECT_DOUBLE_EQ(leaves.at("rows[n=16].n_messages"), 16);
  EXPECT_DOUBLE_EQ(leaves.at("rows[fifo].v"), 3);
  EXPECT_DOUBLE_EQ(leaves.at("rows[2].v"), 4);
}

/// The golden-file test for the CI bench gate's rendering: the exact
/// text the diff produces for a 20%-threshold speedup comparison.
TEST(StatsDiff, GoldenSpeedupDiffText) {
  const auto baseline = json_parse(
      "{\"rows\": ["
      "{\"n_messages\": 16, \"direct_sync_speedup\": 10.0},"
      "{\"n_messages\": 32, \"direct_sync_speedup\": 12.0}]}");
  const auto current = json_parse(
      "{\"rows\": ["
      "{\"n_messages\": 16, \"direct_sync_speedup\": 7.0},"
      "{\"n_messages\": 32, \"direct_sync_speedup\": 12.5}]}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  StatsDiffOptions options;
  options.fields = {"direct_sync_speedup"};
  const StatsDiff diff = stats_diff(*baseline, *current, options);
  EXPECT_EQ(diff.text,
            "diff threshold: 20%\n"
            "  REGRESSION rows[n=16].direct_sync_speedup: 10 -> 7 "
            "(-30.0%)\n"
            "  rows[n=32].direct_sync_speedup: 12 -> 12.5 (+4.2%)\n"
            "compared 2 leaves, 1 regression\n");
  EXPECT_TRUE(diff.regressed());
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("rows[n=16]"), std::string::npos);
}

TEST(StatsDiff, DirectionIsInferredFromLeafNames) {
  const auto baseline = json_parse(
      "{\"oracle_seconds\": 1.0, \"monitor_speedup\": 4.0, "
      "\"events\": 100}");
  // seconds up 50% = regression; speedup up = fine; events (neutral)
  // change wildly = never a regression.
  const auto current = json_parse(
      "{\"oracle_seconds\": 1.5, \"monitor_speedup\": 8.0, "
      "\"events\": 900}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_EQ(diff.compared, 2u);  // neutral leaf skipped without --fields
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("oracle_seconds"), std::string::npos);
}

TEST(StatsDiff, WithinThresholdAndZeroBaselinePass) {
  const auto baseline =
      json_parse("{\"a_speedup\": 10.0, \"b_speedup\": 0.0}");
  const auto current =
      json_parse("{\"a_speedup\": 8.5, \"b_speedup\": 5.0}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_FALSE(diff.regressed());  // -15% within 20%; zero base skipped
  EXPECT_NE(diff.text.find("zero baseline, skipped"), std::string::npos);
}

TEST(StatsDiff, SchemaMismatchIsFlaggedNotSilentlyPassed) {
  // A schema bump renames/adds leaves, so a cross-version diff only
  // compares what survived — callers must see the mismatch (ISSUE 8:
  // msgorder_stats --diff exits 2 on it) instead of a hollow pass.
  const auto baseline = json_parse(
      "{\"schema\": \"msgorder.bench.checker_scaling/4\","
      " \"rows\": [{\"n_messages\": 16, \"x_speedup\": 10.0}]}");
  const auto current = json_parse(
      "{\"schema\": \"msgorder.bench.checker_scaling/5\","
      " \"rows\": [{\"n_messages\": 16, \"x_speedup\": 10.0}]}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_TRUE(diff.schema_mismatch());
  EXPECT_FALSE(diff.regressed());  // values agree; only the version moved
  EXPECT_EQ(diff.baseline_schema, "msgorder.bench.checker_scaling/4");
  EXPECT_EQ(diff.current_schema, "msgorder.bench.checker_scaling/5");
  EXPECT_NE(diff.text.find("schema mismatch"), std::string::npos);

  const StatsDiff same = stats_diff(*baseline, *baseline, {});
  EXPECT_FALSE(same.schema_mismatch());
  EXPECT_EQ(same.text.find("schema mismatch"), std::string::npos);
}

TEST(StatsDiff, RowsMatchByKeyNotPosition) {
  // The current report gained a new smallest size and reordered rows;
  // the n=32 row must still compare against its baseline partner.
  const auto baseline = json_parse(
      "{\"rows\": [{\"n_messages\": 32, \"x_speedup\": 10.0}]}");
  const auto current = json_parse(
      "{\"rows\": [{\"n_messages\": 8, \"x_speedup\": 1.0},"
      "{\"n_messages\": 32, \"x_speedup\": 9.5}]}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_EQ(diff.compared, 1u);
  EXPECT_FALSE(diff.regressed());
}

TEST(StatsSummary, DispatchesOnSchema) {
  const auto report = json_parse(
      "{\"schema\": \"msgorder.run_report/1\", \"protocol\": \"fifo\","
      " \"n_processes\": 4, \"seed\": 9, \"completed\": true,"
      " \"error\": \"\","
      " \"messages\": {\"universe\": 10, \"invoked\": 10,"
      " \"delivered\": 10},"
      " \"latency\": {\"mean\": 2.5, \"max\": 7.0,"
      " \"percentiles\": {\"p50\": 2.0, \"p90\": 5.0, \"p99\": 6.5}},"
      " \"attribution\": {\"segments\": 3,"
      " \"held_by_reason\": {\"wait_predecessor\": 4.5, \"wait_token\": 0}}}");
  ASSERT_TRUE(report.has_value());
  const std::string summary = stats_summary(*report);
  EXPECT_NE(summary.find("protocol=fifo"), std::string::npos);
  EXPECT_NE(summary.find("completed: yes"), std::string::npos);
  EXPECT_NE(summary.find("p99=6.5"), std::string::npos);
  EXPECT_NE(summary.find("wait_predecessor: held 4.5"), std::string::npos);
  // Zero-held reasons stay out of the summary.
  EXPECT_EQ(summary.find("wait_token"), std::string::npos);

  const auto flight = json_parse(
      "{\"schema\": \"msgorder.flight_recorder/2\", \"cause\": \"boom\","
      " \"capacity\": 4, \"total_records\": 7, \"dropped\": 3,"
      " \"records\": [{\"type\": \"event\"}, {\"type\": \"hold\"},"
      " {\"type\": \"note\", \"time\": 2, \"text\": \"witness\"}]}");
  ASSERT_TRUE(flight.has_value());
  const std::string fsummary = stats_summary(*flight);
  EXPECT_NE(fsummary.find("cause=\"boom\""), std::string::npos);
  EXPECT_NE(fsummary.find("1 events, 1 holds, 1 notes"), std::string::npos);
  EXPECT_NE(fsummary.find("last note: \"witness\""), std::string::npos);

  const auto trace =
      json_parse("{\"traceEvents\": [{\"cat\": \"lifecycle\"},"
                 " {\"cat\": \"lifecycle\"}, {\"cat\": \"inhibit\"}]}");
  ASSERT_TRUE(trace.has_value());
  const std::string tsummary = stats_summary(*trace);
  EXPECT_NE(tsummary.find("3 events"), std::string::npos);
  EXPECT_NE(tsummary.find("lifecycle: 2"), std::string::npos);
}

TEST(StatsSummary, SummarizesVerifyArtifactWithRestoreCounters) {
  const auto doc = json_parse(
      "{\"schema\": \"msgorder.verify/2\", \"verdict\": \"verified\","
      " \"scope\": {\"processes\": 3, \"messages\": 4},"
      " \"channel_model\": \"reorder\", \"por\": true,"
      " \"states_total\": 120, \"transitions_total\": 110,"
      " \"restored_hosts_total\": 40,"
      " \"spec_checks_total\": 7, \"spec_memo_hits_total\": 3,"
      " \"interned_hosts_total\": 21, \"interned_channels_total\": 9,"
      " \"interned_packets_total\": 5, \"interned_history_nodes_total\": 30,"
      " \"reinterned_total\": 400,"
      " \"stacks\": [{\"stack\": \"fifo\", \"verdict\": \"verified\","
      " \"states\": 120, \"restored_hosts\": 40, \"spec_checks\": 7,"
      " \"reinterned\": 400, \"scenarios\": []}]}");
  ASSERT_TRUE(doc.has_value());
  const std::string summary = stats_summary(*doc);
  EXPECT_NE(summary.find("verdict=verified scope=3p/4m"), std::string::npos);
  EXPECT_NE(summary.find("transitions=110 restored_hosts=40\n"),
            std::string::npos);
  EXPECT_NE(summary.find("spec_checks=7 spec_memo_hits=3 interned hosts=21 "
                         "channels=9 packets=5 history_nodes=30 "
                         "reinterned=400"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("fifo: verified states=120 restored_hosts=40 "
                         "spec_checks=7 reinterned=400"),
            std::string::npos)
      << summary;
}

// Counts of a million and more print exactly, not as %.6g's lossy
// "2.59833e+06"; non-integral values keep the short rendering.
TEST(StatsSummary, LargeCountsPrintExactly) {
  const auto doc = json_parse(
      "{\"schema\": \"msgorder.verify/2\", \"verdict\": \"verified\","
      " \"scope\": {\"processes\": 4, \"messages\": 6},"
      " \"channel_model\": \"reorder\", \"por\": true,"
      " \"states_total\": 1000000, \"transitions_total\": 690469,"
      " \"restored_hosts_total\": 2598328,"
      " \"stacks\": [{\"stack\": \"fifo\", \"verdict\": \"verified\","
      " \"states\": 9007199254740991, \"restored_hosts\": 1,"
      " \"scenarios\": []}]}");
  ASSERT_TRUE(doc.has_value());
  const std::string summary = stats_summary(*doc);
  EXPECT_NE(summary.find("states=1000000 transitions=690469 "
                         "restored_hosts=2598328"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("fifo: verified states=9007199254740991 "),
            std::string::npos)
      << summary;
  EXPECT_EQ(summary.find("e+"), std::string::npos) << summary;

  const auto report = json_parse(
      "{\"schema\": \"msgorder.run_report/1\", \"protocol\": \"fifo\","
      " \"latency\": {\"mean\": 1234567.5, \"max\": 9007199254740992}}");
  ASSERT_TRUE(report.has_value());
  const std::string text = stats_summary(*report);
  EXPECT_NE(text.find("mean=1.23457e+06 max=9.0072e+15"), std::string::npos)
      << text;
}

TEST(StatsSummary, SummarizesLintArtifact) {
  const auto lint = json_parse(
      "{\"schema\": \"msgorder.lint/1\", \"clean\": false,"
      " \"inputs\": [{\"name\": \"a.spec\", \"parsed\": true,"
      " \"class\": \"tagged\", \"clean\": false,"
      " \"counts\": {\"error\": 0, \"warning\": 2, \"hint\": 0,"
      " \"note\": 1}, \"diagnostics\": []},"
      " {\"name\": \"b.spec\", \"parsed\": false, \"clean\": false,"
      " \"counts\": {\"error\": 1, \"warning\": 0, \"hint\": 0,"
      " \"note\": 0}, \"diagnostics\": []}],"
      " \"totals\": {\"inputs\": 2, \"error\": 1, \"warning\": 2,"
      " \"hint\": 0, \"note\": 1, \"by_rule\": {\"L001\": 1,"
      " \"L007\": 2}}}");
  ASSERT_TRUE(lint.has_value());
  const std::string summary = stats_summary(*lint);
  EXPECT_NE(summary.find("lint report: clean=no inputs=2"),
            std::string::npos);
  EXPECT_NE(summary.find("error=1 warning=2"), std::string::npos);
  EXPECT_NE(summary.find("L007=2"), std::string::npos);
  EXPECT_NE(summary.find("a.spec: class=tagged warning=2 note=1"),
            std::string::npos);
  EXPECT_NE(summary.find("b.spec: parse error"), std::string::npos);
}

TEST(FlattenNumeric, KeysThroughputRowsByShardCount) {
  // msgorder.bench.sim_throughput/1 rows carry no n_messages (it is a
  // top-level param); rows must key by shards so the CI diff pairs the
  // same shard count across runs even if the sweep order changes.
  const auto doc = json_parse(
      "{\"rows\": ["
      "{\"shards\": 1, \"events_per_second\": 2.0e6},"
      "{\"shards\": 4, \"events_per_second\": 7.0e6}]}");
  ASSERT_TRUE(doc.has_value());
  std::map<std::string, double> leaves;
  flatten_numeric(*doc, "", leaves);
  EXPECT_DOUBLE_EQ(leaves.at("rows[shards=1].events_per_second"), 2.0e6);
  EXPECT_DOUBLE_EQ(leaves.at("rows[shards=4].events_per_second"), 7.0e6);
}

TEST(StatsDiff, EventsPerSecondIsHigherBetterDespiteSecondsSubstring) {
  // "events_per_second" contains "seconds"; a naive substring match
  // would treat a throughput gain as a timing regression.
  const auto baseline = json_parse(
      "{\"rows\": [{\"shards\": 4, \"events_per_second\": 4.0e6,"
      " \"seconds\": 1.0}]}");
  const auto improved = json_parse(
      "{\"rows\": [{\"shards\": 4, \"events_per_second\": 8.0e6,"
      " \"seconds\": 0.5}]}");
  ASSERT_TRUE(baseline.has_value() && improved.has_value());
  const StatsDiff up = stats_diff(*baseline, *improved, {});
  EXPECT_FALSE(up.regressed());  // faster is not a regression
  const StatsDiff down = stats_diff(*improved, *baseline, {});
  EXPECT_TRUE(down.regressed());  // but slower is
  ASSERT_GE(down.regressions.size(), 1u);
  EXPECT_NE(down.regressions[0].find("events_per_second"),
            std::string::npos);
}

TEST(StatsSummary, SummarizesThroughputBenchRowsByShards) {
  const auto doc = json_parse(
      "{\"schema\": \"msgorder.bench.sim_throughput/1\", \"rows\": ["
      "{\"shards\": 1, \"seconds\": 2.0, \"events_per_second\": 2.0e6,"
      " \"speedup_vs_sequential\": 1.0},"
      "{\"shards\": 4, \"seconds\": 0.5, \"events_per_second\": 8.0e6,"
      " \"speedup_vs_sequential\": 4.0}]}");
  ASSERT_TRUE(doc.has_value());
  const std::string summary = stats_summary(*doc);
  EXPECT_NE(summary.find("schema=msgorder.bench.sim_throughput/1"),
            std::string::npos);
  EXPECT_NE(summary.find("shards=4:"), std::string::npos);
  EXPECT_NE(summary.find("speedup_vs_sequential=4"), std::string::npos);
}

TEST(StatsDiff, LintDiagnosticCountsAreLowerBetter) {
  const auto baseline = json_parse(
      "{\"schema\": \"msgorder.lint/1\","
      " \"totals\": {\"error\": 1, \"warning\": 2, \"hint\": 1}}");
  const auto current = json_parse(
      "{\"schema\": \"msgorder.lint/1\","
      " \"totals\": {\"error\": 3, \"warning\": 1, \"hint\": 1}}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_TRUE(diff.regressed());
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("totals.error"), std::string::npos);
}

// ---------------------------------------------------------------------
// ISSUE 7: artifact-declared field_meta drives the diff.

TEST(StatsDiff, FieldMetaOverridesNameHeuristic) {
  // "seconds" would be lower-better by name; the artifact declares it
  // higher-better, so the 50% drop is the regression and the 50% rise
  // in the heuristically-misleading leaf passes.
  const auto baseline = json_parse(
      "{\"field_meta\": {\"weird_seconds\": {\"direction\": \"higher\"}},"
      " \"weird_seconds\": 10.0}");
  const auto current = json_parse(
      "{\"field_meta\": {\"weird_seconds\": {\"direction\": \"higher\"}},"
      " \"weird_seconds\": 5.0}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_TRUE(diff.regressed());
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("weird_seconds"), std::string::npos);

  // Same values, declared lower-better: a drop is an improvement.
  const auto baseline2 = json_parse(
      "{\"field_meta\": {\"weird_seconds\": {\"direction\": \"lower\"}},"
      " \"weird_seconds\": 10.0}");
  const auto current2 = json_parse(
      "{\"field_meta\": {\"weird_seconds\": {\"direction\": \"lower\"}},"
      " \"weird_seconds\": 5.0}");
  ASSERT_TRUE(baseline2.has_value() && current2.has_value());
  EXPECT_FALSE(stats_diff(*baseline2, *current2, {}).regressed());
}

TEST(StatsDiff, NoiseFloorRaisesEffectiveThreshold) {
  // A 30% drop in a higher-better leaf regresses at the default 20%
  // threshold, but the artifact declares a 50% noise floor: effective
  // threshold = max(0.2, 0.5), so the wobble passes.  A 60% drop still
  // fails.
  const auto meta =
      "\"field_meta\": {\"tput\": "
      "{\"direction\": \"higher\", \"noise_floor\": 0.5}}";
  const auto with_tput = [&](const char* tput) {
    std::string doc = "{";
    doc += meta;
    doc += ", \"tput\": ";
    doc += tput;
    doc += "}";
    return json_parse(doc);
  };
  const auto baseline = with_tput("100.0");
  const auto wobbly = with_tput("70.0");
  const auto broken = with_tput("40.0");
  ASSERT_TRUE(baseline.has_value() && wobbly.has_value() &&
              broken.has_value());
  EXPECT_FALSE(stats_diff(*baseline, *wobbly, {}).regressed());
  EXPECT_TRUE(stats_diff(*baseline, *broken, {}).regressed());
}

TEST(StatsDiff, CurrentDocumentsFieldMetaWins) {
  // Direction changed between versions: the current doc declares the
  // leaf neutral, so the old higher-better declaration cannot fail it.
  const auto baseline = json_parse(
      "{\"field_meta\": {\"v\": {\"direction\": \"higher\"}}, \"v\": 10.0}");
  const auto current = json_parse(
      "{\"field_meta\": {\"v\": {\"direction\": \"neutral\"}}, \"v\": 1.0}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  EXPECT_FALSE(stats_diff(*baseline, *current, {}).regressed());
}

TEST(StatsDiff, FieldMetaSubtreeIsNeverDiffed) {
  // The noise_floor numbers inside field_meta are numeric leaves; they
  // must not be compared (a floor change is not a perf change).
  const auto baseline = json_parse(
      "{\"field_meta\": {\"a_speedup\": {\"noise_floor\": 0.1}},"
      " \"a_speedup\": 10.0}");
  const auto current = json_parse(
      "{\"field_meta\": {\"a_speedup\": {\"noise_floor\": 0.4}},"
      " \"a_speedup\": 10.0}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_EQ(diff.compared, 1u);  // just a_speedup itself
  EXPECT_EQ(diff.text.find("field_meta"), std::string::npos);
}

TEST(StatsDiff, LeavesWithoutMetaKeepTheHeuristic) {
  // Old artifact without field_meta diffed against a new one that has
  // it for other leaves: the unlisted leaf still uses the name
  // heuristic (lower-better for *_seconds).
  const auto baseline = json_parse(
      "{\"oracle_seconds\": 1.0, \"tput\": 100.0}");
  const auto current = json_parse(
      "{\"field_meta\": {\"tput\": {\"direction\": \"higher\"}},"
      " \"oracle_seconds\": 2.0, \"tput\": 100.0}");
  ASSERT_TRUE(baseline.has_value() && current.has_value());
  const StatsDiff diff = stats_diff(*baseline, *current, {});
  EXPECT_TRUE(diff.regressed());
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("oracle_seconds"), std::string::npos);
}

// ---------------------------------------------------------------------
// ISSUE 7 satellite: null percentiles render as missing, never as 0.

TEST(StatsSummary, NullPercentilesRenderAsNotAvailable) {
  const auto report = json_parse(
      "{\"schema\": \"msgorder.run_report/1\", \"protocol\": \"fifo\","
      " \"n_processes\": 2, \"seed\": 1, \"completed\": true,"
      " \"latency\": {\"mean\": 3.5, \"max\": 9.0,"
      "               \"percentiles\": null}}");
  ASSERT_TRUE(report.has_value());
  const std::string text = stats_summary(*report);
  EXPECT_NE(text.find("p50=n/a p90=n/a p99=n/a"), std::string::npos);
  // The old bug: a null percentile block printed as zeros.
  EXPECT_EQ(text.find("p50=0"), std::string::npos);
}

TEST(StatsSummary, PartialPercentilesMixValuesAndNotAvailable) {
  const auto report = json_parse(
      "{\"schema\": \"msgorder.run_report/1\", \"protocol\": \"fifo\","
      " \"n_processes\": 2, \"seed\": 1, \"completed\": true,"
      " \"latency\": {\"mean\": 3.5, \"max\": 9.0,"
      "   \"percentiles\": {\"p50\": 2.5, \"p90\": null, \"p99\": 8.0}}}");
  ASSERT_TRUE(report.has_value());
  const std::string text = stats_summary(*report);
  EXPECT_NE(text.find("p50=2.5 p90=n/a p99=8"), std::string::npos);
}

// ---------------------------------------------------------------------
// ISSUE 7: heatmap + profile sections of the run-report summary.

TEST(StatsSummary, RendersInhibitionHeatmapMatrix) {
  const auto report = json_parse(
      "{\"schema\": \"msgorder.run_report/1\", \"protocol\": \"fifo\","
      " \"n_processes\": 3, \"seed\": 1, \"completed\": true,"
      " \"inhibition_heatmap\": {\"cells\": ["
      "{\"blocker\": 0, \"blocked\": 1, \"kind\": \"wait_predecessor\","
      " \"segments\": 2, \"total\": 5.0, \"mean\": 2.5},"
      "{\"blocker\": null, \"blocked\": 2, \"kind\": \"wait_flush\","
      " \"segments\": 1, \"total\": 3.0, \"mean\": 3.0}],"
      " \"held_by_kind\": {\"wait_predecessor\": 5.0,"
      "                    \"wait_flush\": 3.0}}}");
  ASSERT_TRUE(report.has_value());
  const std::string text = stats_summary(*report);
  EXPECT_NE(text.find("inhibition heatmap"), std::string::npos);
  EXPECT_NE(text.find("wait_predecessor:"), std::string::npos);
  EXPECT_NE(text.find("wait_flush:"), std::string::npos);
  EXPECT_NE(text.find("P0"), std::string::npos);  // known blocker row
  EXPECT_NE(text.find("?"), std::string::npos);   // unknown-blocker row
  EXPECT_NE(text.find("5"), std::string::npos);
}

TEST(StatsSummary, RendersProfileLineWithStallSplit) {
  const auto report = json_parse(
      "{\"schema\": \"msgorder.run_report/1\", \"protocol\": \"fifo\","
      " \"n_processes\": 3, \"seed\": 1, \"completed\": true,"
      " \"profile\": {\"schema\": \"msgorder.profile/2\","
      "  \"engine\": \"sharded\", \"shards\": 4, \"windows\": 120,"
      "  \"events_total\": 9000,"
      "  \"stalls\": {\"lookahead\": 7, \"empty_heap\": 2}}}");
  ASSERT_TRUE(report.has_value());
  const std::string text = stats_summary(*report);
  EXPECT_NE(text.find("profile: engine=sharded shards=4 windows=120 "
                      "events=9000 "
                      "stalls(lookahead/empty)=7/2"),
            std::string::npos);
}

}  // namespace
}  // namespace msgorder
