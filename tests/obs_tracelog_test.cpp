// Tests for the causal trace log (ISSUE 9 tentpole): format round-trip,
// the sequential == sharded record-for-record equality property across
// the full protocol registry, the metrics/run-report surfacing of the
// log counters, and the flight-recorder post-mortem cross-reference on
// engine error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/json_value.hpp"
#include "src/obs/report.hpp"
#include "src/obs/tracelog.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/network.hpp"
#include "src/sim/simulator.hpp"

namespace msgorder {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "msgorder_" + name;
}

Workload test_workload(std::size_t n_processes, std::size_t n_messages,
                       std::uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.n_processes = n_processes;
  wopts.n_messages = n_messages;
  wopts.mean_gap = 0.3;
  return random_workload(wopts, rng);
}

/// Run `factory` with a tracelog attached; returns the loaded log.
std::optional<LoadedTraceLog> record_run(const ProtocolFactory& factory,
                                         const Workload& workload,
                                         std::size_t n_processes,
                                         const std::string& log_path,
                                         std::size_t shards,
                                         std::uint64_t perturb_xor = 0) {
  ObservabilityOptions oopts;
  oopts.tracelog = log_path;
  Observability obs(oopts);
  SimOptions sopts;
  sopts.seed = 99;
  sopts.network.jitter_mean = 3.0;
  sopts.shards = shards;
  sopts.observability = &obs;
  if (perturb_xor != 0) {
    sopts.network.perturb_channel_xor = perturb_xor;
    sopts.network.perturb_src = workload.front().message.src;
    sopts.network.perturb_dst = workload.front().message.dst;
  }
  const SimResult result =
      simulate(workload, factory, n_processes, sopts);
  EXPECT_TRUE(result.completed) << result.error;
  if (!result.completed) return std::nullopt;
  std::string error;
  auto log = load_tracelog(log_path, &error);
  EXPECT_TRUE(log.has_value()) << error;
  return log;
}

TEST(TraceLog, WriterReaderRoundTrip) {
  const std::string path = temp_path("roundtrip.tracelog");
  // The tail keeps every appended record as the writer completed it
  // (Lamport clock filled), so it is the expected decoding.
  TraceLogWriter writer(path, /*keep_tail=*/true);
  TraceLogHeader header;
  header.schema = "msgorder.tracelog/1";
  header.engine = "sequential";
  header.protocol = "unit";
  header.n_processes = 3;
  header.n_messages = 2;
  header.seed = 42;
  header.lookahead = 1.5;
  writer.begin_run(header);

  const Message m0{0, 0, 1, /*color=*/-2};
  const auto log_event = [&](ProcessId at, EventKind kind, SimTime t,
                             std::uint64_t tiebreak) {
    TraceLogRecord rec;
    set_event_record(rec, m0, at, {0, kind}, t, tiebreak);
    writer.append(rec);
  };
  const auto log_hold = [&](ProcessId at, const HoldReason& reason,
                            SimTime t, std::uint64_t tiebreak) {
    TraceLogRecord rec;
    set_hold_record(rec, at, 1, reason, t, tiebreak);
    writer.append(rec);
  };
  log_event(0, EventKind::kInvoke, 0.5, 11);
  log_event(0, EventKind::kSend, 0.5, 11);
  log_hold(1, HoldReason::predecessor(0, std::nullopt), 0.75, 12);
  log_event(1, EventKind::kReceive, 1.25, 13);
  log_event(1, EventKind::kDeliver, 1.25, 13);
  log_hold(2, HoldReason::predecessor(0, 1), 1.5, 14);
  log_hold(2, HoldReason::flush(0), 1.75, 15);
  log_hold(2, HoldReason::token(), 1.75, 15);
  writer.append(note_record("invariant: all clear", 2.0));
  writer.finish();
  ASSERT_TRUE(writer.ok()) << writer.error();
  EXPECT_EQ(writer.events_written(), 9u);

  std::string error;
  const auto log = load_tracelog(path, &error);
  ASSERT_TRUE(log.has_value()) << error;
  EXPECT_EQ(log->header.schema, "msgorder.tracelog/1");
  EXPECT_EQ(log->header.engine, "sequential");
  EXPECT_EQ(log->header.protocol, "unit");
  EXPECT_EQ(log->header.n_processes, 3u);
  EXPECT_EQ(log->header.seed, 42u);
  EXPECT_DOUBLE_EQ(log->header.lookahead, 1.5);
  ASSERT_EQ(log->records.size(), 9u);
  ASSERT_EQ(log->events.size(), 4u);

  const TraceLogRecord& send = log->records[1];
  EXPECT_EQ(send.type, TraceLogRecord::Type::kEvent);
  EXPECT_EQ(send.event.kind, EventKind::kSend);
  EXPECT_EQ(send.process, 0u);
  EXPECT_EQ(send.peer, 1u);  // outbound: the destination
  EXPECT_EQ(send.color, -2);
  EXPECT_DOUBLE_EQ(send.time, 0.5);
  EXPECT_EQ(send.tiebreak, 11u);
  EXPECT_EQ(log->records[3].peer, 0u);  // inbound: the source
  // Online Lamport clocks: invoke=1, send=2, receive=max(0,2)+1=3,
  // deliver=4.
  EXPECT_EQ(log->records[0].lamport, 1u);
  EXPECT_EQ(send.lamport, 2u);
  EXPECT_EQ(log->records[3].lamport, 3u);
  EXPECT_EQ(log->records[4].lamport, 4u);

  const TraceLogRecord& hold = log->records[2];
  EXPECT_EQ(hold.type, TraceLogRecord::Type::kHold);
  EXPECT_EQ(hold.held_msg, 1u);
  EXPECT_EQ(hold.process, 1u);
  EXPECT_EQ(hold.reason.kind, HoldKind::kWaitPredecessor);
  ASSERT_TRUE(hold.reason.blocking_msg.has_value());
  EXPECT_EQ(*hold.reason.blocking_msg, 0u);
  EXPECT_FALSE(hold.reason.blocking_proc.has_value());
  EXPECT_EQ(log->records[5].reason.blocking_proc, std::optional<ProcessId>(1));
  EXPECT_FALSE(log->records[6].reason.blocking_msg.has_value());
  EXPECT_EQ(log->records[6].reason.blocking_proc, std::optional<ProcessId>(0));
  EXPECT_EQ(log->records[7].reason, HoldReason::token());

  const TraceLogRecord& note = log->records[8];
  EXPECT_EQ(note.type, TraceLogRecord::Type::kNote);
  EXPECT_EQ(note.note, "invariant: all clear");
  EXPECT_DOUBLE_EQ(note.time, 2.0);

  // The streaming reader decodes exactly what was appended: append and
  // TraceLogStream::next are inverses.
  std::vector<TraceLogRecord> appended;
  writer.tail()->for_each(
      [&](const TraceLogRecord& r) { appended.push_back(r); });
  ASSERT_EQ(appended.size(), 9u);
  TraceLogStream stream;
  ASSERT_TRUE(stream.open(path, &error)) << error;
  TraceLogRecord rec;
  for (std::size_t i = 0; i < appended.size(); ++i) {
    ASSERT_EQ(stream.next(&rec, &error), 1) << error;
    EXPECT_TRUE(rec == appended[i]) << "record " << i;
    EXPECT_TRUE(rec == log->records[i]) << "record " << i;
  }
  EXPECT_EQ(stream.next(&rec, &error), 0);
  std::remove(path.c_str());
}

TEST(TraceLog, ChannelStreamSeedMatchesNetwork) {
  TraceLogHeader header;
  header.seed = 7071;
  EXPECT_EQ(header.channel_stream_seed(2, 5),
            Network::channel_seed(7071, 2, 5));
  EXPECT_NE(header.channel_stream_seed(2, 5),
            header.channel_stream_seed(5, 2));
}

// The headline property: for every shipped protocol, the sequential and
// the 4-shard engine write record-for-record identical logs — events,
// holds, Lamport clocks, tiebreaks, everything.
TEST(TraceLog, SequentialAndShardedLogsAreIdenticalAcrossRegistry) {
  const Workload workload = test_workload(6, 120, 2025);
  for (const RegisteredProtocol& rp : standard_protocols()) {
    const std::string seq_path = temp_path(rp.name + "_seq.tracelog");
    const std::string shd_path = temp_path(rp.name + "_shd.tracelog");
    const auto seq = record_run(rp.factory, workload, 6, seq_path, 1);
    const auto shd = record_run(rp.factory, workload, 6, shd_path, 4);
    ASSERT_TRUE(seq.has_value()) << rp.name;
    ASSERT_TRUE(shd.has_value()) << rp.name;
    EXPECT_EQ(seq->header.engine, "sequential") << rp.name;
    EXPECT_EQ(shd->header.engine, "sharded") << rp.name;
    EXPECT_EQ(seq->header.seed, shd->header.seed) << rp.name;
    ASSERT_EQ(seq->records.size(), shd->records.size()) << rp.name;
    for (std::size_t i = 0; i < seq->records.size(); ++i) {
      ASSERT_TRUE(seq->records[i] == shd->records[i])
          << rp.name << " diverges at record " << i;
    }
    std::remove(seq_path.c_str());
    std::remove(shd_path.c_str());
  }
}

// A perturbed channel RNG stream must actually change the log — the
// bisector tests in obs_query_test rely on this fixture behaving.
TEST(TraceLog, PerturbedChannelSeedChangesTheLog) {
  const Workload workload = test_workload(4, 80, 7);
  const std::string base_path = temp_path("perturb_base.tracelog");
  const std::string pert_path = temp_path("perturb_xor.tracelog");
  const auto base =
      record_run(FifoProtocol::factory(), workload, 4, base_path, 1);
  const auto pert =
      record_run(FifoProtocol::factory(), workload, 4, pert_path, 1,
                 0x9e3779b97f4a7c15ULL);
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(pert.has_value());
  bool differs = base->records.size() != pert->records.size();
  for (std::size_t i = 0; !differs && i < base->records.size(); ++i) {
    differs = !(base->records[i] == pert->records[i]);
  }
  EXPECT_TRUE(differs);
  std::remove(base_path.c_str());
  std::remove(pert_path.c_str());
}

TEST(TraceLog, CountersSurfaceInMetricsAndRunReport) {
  const Workload workload = test_workload(4, 60, 12);
  const std::string path = temp_path("counters.tracelog");
  ObservabilityOptions oopts;
  oopts.tracelog = path;
  Observability obs(oopts);
  SimOptions sopts;
  sopts.seed = 5;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 4, sopts);
  ASSERT_TRUE(result.completed) << result.error;

  ASSERT_NE(obs.tracelog(), nullptr);
  ASSERT_TRUE(obs.tracelog()->ok()) << obs.tracelog()->error();
  std::string error;
  const auto log = load_tracelog(path, &error);
  ASSERT_TRUE(log.has_value()) << error;
  EXPECT_EQ(obs.tracelog()->events_written(), log->records.size());
  // 60 messages x 4 system events each, plus holds and notes.
  EXPECT_GE(log->events.size(), 240u);

  const Counter* events = obs.metrics().find_counter("tracelog.events_written");
  const Counter* bytes = obs.metrics().find_counter("tracelog.bytes_written");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(events->value(), obs.tracelog()->events_written());
  EXPECT_EQ(bytes->value(), obs.tracelog()->bytes_written());

  RunReportOptions ropts;
  ropts.protocol = "fifo";
  ropts.n_processes = 4;
  ropts.seed = sopts.seed;
  const std::string json = run_report_json(result, ropts, &obs);
  EXPECT_NE(json.find("\"tracelog\":{\"path\":"), std::string::npos);
  EXPECT_NE(json.find("\"events_written\":" +
                      std::to_string(obs.tracelog()->events_written())),
            std::string::npos);
  EXPECT_NE(json.find("\"bytes_written\":" +
                      std::to_string(obs.tracelog()->bytes_written())),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceLog, AbsentByDefaultAndNullInReport) {
  const Workload workload = test_workload(3, 20, 3);
  Observability obs;
  SimOptions sopts;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 3, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(obs.tracelog(), nullptr);
  RunReportOptions ropts;
  const std::string json = run_report_json(result, ropts, &obs);
  EXPECT_NE(json.find("\"tracelog\":null"), std::string::npos);
}

// Satellite (a): the sharded engine's error path arms the post-mortem —
// the dump names the tripping shard and cross-references the tracelog.
TEST(TraceLog, ShardedCapTripDumpsPostmortemWithTraceLogPath) {
  const Workload workload = test_workload(4, 200, 17);
  const std::string log_path = temp_path("captrip.tracelog");
  const std::string dump_path = temp_path("captrip_postmortem.json");
  ObservabilityOptions oopts;
  oopts.flight_recorder = true;
  oopts.tracelog = log_path;
  Observability obs(oopts);
  SimOptions sopts;
  sopts.seed = 23;
  sopts.shards = 4;
  sopts.max_events = 50;  // trips long before 200 messages complete
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), 4, sopts);
  ASSERT_FALSE(result.completed);
  EXPECT_NE(result.error.find("event cap exceeded in shard"),
            std::string::npos)
      << result.error;

  std::string error;
  ASSERT_TRUE(dump_postmortem_if_red(dump_path, result, &obs, nullptr,
                                     &error))
      << error;
  const auto dump = json_parse_file(dump_path, &error);
  ASSERT_TRUE(dump.has_value()) << error;
  // The dump must name the cause and cross-reference the tracelog path.
  const auto cause = dump->string_at("cause");
  ASSERT_TRUE(cause.has_value());
  EXPECT_NE(cause->find("event cap exceeded in shard"), std::string::npos)
      << *cause;
  const auto tracelog = dump->string_at("tracelog");
  ASSERT_TRUE(tracelog.has_value());
  EXPECT_EQ(*tracelog, log_path);

  // The log on disk is finished (flushed) despite the error exit.
  const auto log = load_tracelog(log_path, &error);
  ASSERT_TRUE(log.has_value()) << error;
  EXPECT_GT(log->records.size(), 0u);
  // The last record is the engine's invariant note naming the shard.
  const TraceLogRecord& last = log->records.back();
  EXPECT_EQ(last.type, TraceLogRecord::Type::kNote);
  EXPECT_NE(last.note.find("event cap exceeded in shard"),
            std::string::npos)
      << last.note;
  std::remove(log_path.c_str());
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace msgorder
