// Engine profiler + inhibition heatmap (ISSUE 7 tentpole): the
// acceptance invariants as a test suite.
//   * A profiled sharded run emits a validating msgorder.profile/2
//     section whose per-shard event counts sum to the trace's event
//     total (at 1M messages under NDEBUG, a smaller workload in
//     sanitizer builds).
//   * Under a low-lookahead network the stall-cause counters attribute
//     zero-progress windows to lookahead exhaustion; shards with no
//     active process attribute every window to an empty queue; and on
//     every shard busy + stalled windows equal polled windows exactly.
//   * The per-channel heatmap's per-kind cell sums equal
//     DelayAttribution::totals_by_kind() exactly, and the run report
//     embeds both sections consistently.
#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "src/obs/heatmap.hpp"
#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/obs/observability.hpp"
#include "src/obs/report.hpp"
#include "src/obs/tracer.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"

namespace msgorder {
namespace {

// The acceptance-scale workload.  Sanitizer builds (the Debug CI job)
// run the same assertions at a size that keeps the suite fast.
#ifdef NDEBUG
constexpr std::size_t kBigMessages = 1'000'000;
#else
constexpr std::size_t kBigMessages = 50'000;
#endif

Workload make_workload(std::size_t n_processes, std::size_t n_messages,
                       std::uint64_t seed, double mean_gap = 0.3) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.n_processes = n_processes;
  wopts.n_messages = n_messages;
  wopts.mean_gap = mean_gap;
  return random_workload(wopts, rng);
}

std::uint64_t trace_event_count(const Trace& trace) {
  std::uint64_t n = 0;
  for (const auto& log : trace.logs()) n += log.size();
  return n;
}

std::uint64_t per_shard_event_sum(const SimProfile& profile) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < profile.shard_count(); ++s) {
    n += profile.shard(s).events;
  }
  return n;
}

TEST(SimProfileTest, ShardedRunEventSumsMatchTraceAndJsonValidates) {
  const Workload workload = make_workload(8, kBigMessages, 21);
  Observability obs({.attribution = false, .profiling = true});
  SimOptions sopts;
  sopts.seed = 33;
  sopts.shards = 4;
  sopts.shard_workers = 4;  // threaded: barrier rows get exercised too
  sopts.max_events = 20'000'000;  // headroom at acceptance scale
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 8, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_EQ(result.shards_used, 4u);

  const SimProfile* profile = obs.profile();
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->engine(), "sharded");
  EXPECT_EQ(profile->shard_count(), 4u);
  EXPECT_GT(profile->windows(), 0u);

  // The acceptance invariant: per-shard event counts sum to the trace's
  // event total (and the aggregate accessor agrees).
  const std::uint64_t trace_events = trace_event_count(result.trace);
  EXPECT_EQ(per_shard_event_sum(*profile), trace_events);
  EXPECT_EQ(profile->total_events(), trace_events);

  // Every shard actually ran windows and work was spread around.
  std::uint64_t entries = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const ShardProfileRow& row = profile->shard(s);
    EXPECT_GT(row.windows, 0u) << "shard " << s;
    EXPECT_GT(row.events, 0u) << "shard " << s;
    EXPECT_GT(row.heap_depth_hwm, 0u) << "shard " << s;
    entries += row.entries;
  }
  EXPECT_EQ(entries, profile->total_entries());

  // Threaded mode: the workers went through the window barriers.
  ASSERT_EQ(profile->worker_count(), 4u);
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_GT(profile->worker(w).barrier_waits, 0u) << "worker " << w;
  }

  // The standalone JSON document validates and round-trips with the
  // expected schema tag and totals.
  const std::string json = profile->to_json();
  std::string error;
  const auto doc = json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_at("schema").value_or(""), "msgorder.profile/2");
  EXPECT_EQ(doc->string_at("engine").value_or(""), "sharded");
  EXPECT_EQ(doc->number_at("events_total").value_or(-1),
            static_cast<double>(trace_events));
  const JsonValue* per_shard = doc->find("per_shard");
  ASSERT_NE(per_shard, nullptr);
  ASSERT_TRUE(per_shard->is_array());
  ASSERT_EQ(per_shard->as_array().size(), 4u);
  double json_event_sum = 0;
  for (const JsonValue& row : per_shard->as_array()) {
    json_event_sum += row.number_at("events").value_or(0);
  }
  EXPECT_EQ(json_event_sum, static_cast<double>(trace_events));
  const JsonValue* per_worker = doc->find("per_worker");
  ASSERT_NE(per_worker, nullptr);
  ASSERT_EQ(per_worker->as_array().size(), 4u);
  // Samples are retained whenever profiling is on.
  EXPECT_GT(doc->number_at("samples_retained").value_or(0), 0);

  // Profiling retains per-window samples, so the counter tracks land in
  // the Chrome trace as "C" phase events.
  const std::string trace_json = chrome_trace_json(result.trace, obs);
  EXPECT_NE(trace_json.find("entries_per_window"), std::string::npos);
  EXPECT_NE(trace_json.find("heap_depth"), std::string::npos);
}

TEST(SimProfileTest, LowLookaheadAttributesStallsToLookahead) {
  // Lookahead = base_delay.  Make it tiny relative to the workload's
  // inter-invoke gaps: windows then advance in slivers and shards keep
  // holding pending entries past the window end.
  const Workload workload = make_workload(8, 2000, 7, /*mean_gap=*/1.0);
  Observability obs({.attribution = false, .profiling = true});
  SimOptions sopts;
  sopts.seed = 11;
  sopts.shards = 4;
  sopts.network.base_delay = 0.01;
  sopts.network.jitter_mean = 0.5;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 8, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_EQ(result.shards_used, 4u);

  const SimProfile* profile = obs.profile();
  ASSERT_NE(profile, nullptr);
  EXPECT_GT(profile->total_stall_lookahead(), 0u);
  // Every polled window is either busy or stalled for exactly one cause.
  for (std::size_t s = 0; s < profile->shard_count(); ++s) {
    const ShardProfileRow& row = profile->shard(s);
    EXPECT_EQ(row.busy_windows + row.stall_lookahead + row.stall_empty,
              row.windows)
        << "shard " << s;
  }
}

TEST(SimProfileTest, IdleShardsAttributeEveryWindowToEmpty) {
  // Traffic only between processes 0 and 1 of 8: shards 2 and 3 own no
  // active process, so every window they are polled in is an empty
  // stall, and every shard's windows split exactly into busy and
  // stalled ones.
  const Workload workload = make_workload(2, 2000, 13);
  Observability obs({.attribution = false, .profiling = true});
  SimOptions sopts;
  sopts.seed = 17;
  sopts.shards = 4;
  sopts.shard_workers = 4;
  sopts.network.jitter_mean = 3.0;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 8, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_EQ(result.shards_used, 4u);

  const SimProfile* profile = obs.profile();
  ASSERT_NE(profile, nullptr);
  for (std::size_t s = 0; s < profile->shard_count(); ++s) {
    const ShardProfileRow& row = profile->shard(s);
    EXPECT_EQ(row.busy_windows + row.stall_lookahead + row.stall_empty,
              row.windows)
        << "shard " << s;
  }
  for (const std::size_t idle : {std::size_t{2}, std::size_t{3}}) {
    const ShardProfileRow& row = profile->shard(idle);
    EXPECT_GT(row.windows, 0u) << "shard " << idle;
    EXPECT_EQ(row.stall_empty, row.windows) << "shard " << idle;
    EXPECT_EQ(row.events, 0u) << "shard " << idle;
  }
}

TEST(SimProfileTest, SequentialEngineProfilesWithoutStalls) {
  const Workload workload = make_workload(4, 800, 3);
  Observability obs({.attribution = false, .profiling = true});
  SimOptions sopts;
  sopts.seed = 5;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 4, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_EQ(result.shards_used, 1u);

  const SimProfile* profile = obs.profile();
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->engine(), "sequential");
  ASSERT_EQ(profile->shard_count(), 1u);
  EXPECT_GT(profile->windows(), 0u);
  EXPECT_EQ(profile->total_events(), trace_event_count(result.trace));
  // The sequential window loop only opens a window at a pending entry,
  // so every window processes at least one: stalls are structural zero.
  EXPECT_EQ(profile->total_stall_lookahead(), 0u);
  EXPECT_EQ(profile->total_stall_empty(), 0u);
  EXPECT_EQ(profile->total_stall_backpressure(), 0u);
  const ShardProfileRow& row = profile->shard(0);
  EXPECT_EQ(row.busy_windows, row.windows);
  EXPECT_GT(row.heap_depth_hwm, 0u);
}

TEST(SimProfileTest, ProfileOffLeavesAccessorNull) {
  const Workload workload = make_workload(4, 200, 9);
  Observability obs;  // defaults: no profiling
  SimOptions sopts;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 4, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(obs.profile(), nullptr);
}

// ---------------------------------------------------------------------
// Inhibition heatmap

TEST(InhibitionHeatmapTest, CellSumsEqualAttributionTotalsByKind) {
  // Exercise several hold kinds: every registered protocol on the same
  // jittery workload, each heatmap checked against its own attribution.
  for (const RegisteredProtocol& rp : standard_protocols()) {
    const Workload workload = make_workload(6, 600, 29);
    Observability obs({.label = rp.name});
    SimOptions sopts;
    sopts.seed = 31;
    sopts.network.jitter_mean = 3.0;
    sopts.observability = &obs;
    const SimResult result = simulate(workload, rp.factory, 6, sopts);
    ASSERT_TRUE(result.completed) << rp.name << ": " << result.error;
    const DelayAttribution* attribution = obs.attribution();
    ASSERT_NE(attribution, nullptr) << rp.name;

    const InhibitionHeatmap heatmap = InhibitionHeatmap::build(*attribution);
    // Builder-side totals and a from-scratch cell sum must both equal
    // the attribution table's per-kind totals, kind by kind.
    std::array<SimTime, kHoldKindCount> cell_sums{};
    std::array<std::uint64_t, kHoldKindCount> cell_segments{};
    for (const HeatmapCell& cell : heatmap.cells()) {
      const auto k = static_cast<std::size_t>(cell.kind);
      cell_sums[k] += cell.total;
      cell_segments[k] += cell.segments;
      EXPECT_GT(cell.segments, 0u) << rp.name;
      EXPECT_NE(cell.kind, HoldKind::kNone) << rp.name;
    }
    for (std::size_t k = 0; k < kHoldKindCount; ++k) {
      // Same segments, different summation order: equal up to FP
      // re-association (relative 1e-9), not bit-equal.
      const SimTime expected = attribution->totals_by_kind()[k];
      const SimTime tol = std::max<SimTime>(1.0, expected) * 1e-9;
      EXPECT_NEAR(cell_sums[k], expected, tol) << rp.name << " kind " << k;
      EXPECT_NEAR(heatmap.totals_by_kind()[k], expected, tol)
          << rp.name << " kind " << k;
    }
  }
}

TEST(InhibitionHeatmapTest, CellsAreDeterministicallySorted) {
  const Workload workload = make_workload(6, 600, 29);
  Observability obs;
  SimOptions sopts;
  sopts.seed = 31;
  sopts.network.jitter_mean = 3.0;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 6, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  const InhibitionHeatmap heatmap =
      InhibitionHeatmap::build(*obs.attribution());
  ASSERT_FALSE(heatmap.cells().empty());
  for (std::size_t i = 1; i < heatmap.cells().size(); ++i) {
    const HeatmapCell& a = heatmap.cells()[i - 1];
    const HeatmapCell& b = heatmap.cells()[i];
    // (kind, blocker with unknown last, blocked) strictly increasing.
    const auto key = [](const HeatmapCell& c) {
      return std::make_tuple(
          static_cast<int>(c.kind), !c.blocker.has_value(),
          c.blocker.value_or(0), c.blocked);
    };
    EXPECT_LT(key(a), key(b)) << "cells " << i - 1 << ", " << i;
  }
}

TEST(InhibitionHeatmapTest, RunReportEmbedsConsistentSections) {
  const Workload workload = make_workload(6, 600, 41);
  Observability obs({.profiling = true});
  SimOptions sopts;
  sopts.seed = 43;
  sopts.shards = 2;
  sopts.network.jitter_mean = 3.0;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 6, sopts);
  ASSERT_TRUE(result.completed) << result.error;

  const std::string report = run_report_json(result, {.protocol = "fifo"}, &obs);
  std::string error;
  const auto doc = json_parse(report, &error);
  ASSERT_TRUE(doc.has_value()) << error;

  // Profile section: present, tagged, and consistent with the run.
  const JsonValue* profile = doc->find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_TRUE(profile->is_object());
  EXPECT_EQ(profile->string_at("schema").value_or(""),
            "msgorder.profile/2");
  EXPECT_EQ(profile->number_at("events_total").value_or(-1),
            static_cast<double>(trace_event_count(result.trace)));

  // Heatmap section: per-kind cell sums equal both its own
  // held_by_kind rollup and the attribution section's held_by_reason.
  const JsonValue* heatmap = doc->find("inhibition_heatmap");
  ASSERT_NE(heatmap, nullptr);
  ASSERT_TRUE(heatmap->is_object());
  const JsonValue* cells = heatmap->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_FALSE(cells->as_array().empty());
  std::map<std::string, double> sums;
  for (const JsonValue& cell : cells->as_array()) {
    sums[cell.string_at("kind").value_or("?")] +=
        cell.number_at("total").value_or(0);
  }
  const JsonValue* held_by_kind = heatmap->find("held_by_kind");
  ASSERT_NE(held_by_kind, nullptr);
  for (const auto& [kind, total] : held_by_kind->as_object()) {
    EXPECT_NEAR(sums[kind], total.as_number(), 1e-9) << kind;
  }
  const JsonValue* attribution = doc->find("attribution");
  ASSERT_NE(attribution, nullptr);
  const JsonValue* held_by_reason = attribution->find("held_by_reason");
  ASSERT_NE(held_by_reason, nullptr);
  for (const auto& [kind, total] : held_by_reason->as_object()) {
    EXPECT_NEAR(sums.count(kind) != 0 ? sums[kind] : 0.0,
                total.as_number(), 1e-9)
        << kind;
  }
}

// A run without attribution still reports: the heatmap slot goes null
// instead of lying with an empty matrix.
TEST(InhibitionHeatmapTest, ReportWithoutAttributionHasNullHeatmap) {
  const Workload workload = make_workload(4, 200, 3);
  Observability obs({.attribution = false});
  SimOptions sopts;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 4, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  const std::string report = run_report_json(result, {.protocol = "fifo"}, &obs);
  std::string error;
  const auto doc = json_parse(report, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* heatmap = doc->find("inhibition_heatmap");
  ASSERT_NE(heatmap, nullptr);
  EXPECT_TRUE(heatmap->is_null());
  const JsonValue* profile = doc->find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_TRUE(profile->is_null());
}

}  // namespace
}  // namespace msgorder
