// Tests for the flight recorder, the in-memory tail of the trace log's
// record stream: ring wrap-around semantics, the
// msgorder.flight_recorder/2 dump, the ring equalling the last records
// of the log file at every shard count, and the end-to-end post-mortem
// path — a violating run dumps a document whose final records contain
// the violating witness's deliveries.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/checker/monitor.hpp"
#include "src/obs/json_value.hpp"
#include "src/obs/observability.hpp"
#include "src/obs/report.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/fifo.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"

namespace msgorder {
namespace {

constexpr std::size_t kCap = TraceLogTail::kCapacity;

TraceLogRecord invoke_of(std::uint64_t i) {
  const auto msg = static_cast<MessageId>(i);
  TraceLogRecord rec;
  set_event_record(rec, Message{msg, 0, 1}, 0, {msg, EventKind::kInvoke},
                   static_cast<SimTime>(i), i);
  return rec;
}

TEST(FlightRecorder, WrapAroundKeepsTheNewestRecords) {
  TraceLogTail tail;
  EXPECT_EQ(tail.size(), 0u);
  for (std::uint64_t i = 0; i < kCap + 12; ++i) tail.push(invoke_of(i));
  EXPECT_EQ(tail.size(), kCap);
  EXPECT_EQ(tail.total_records(), kCap + 12);

  // Oldest retained record is #12; iteration is oldest to newest.
  std::vector<MessageId> seen;
  tail.for_each(
      [&](const TraceLogRecord& r) { seen.push_back(r.event.msg); });
  ASSERT_EQ(seen.size(), kCap);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 12 + i);
  }
}

TEST(FlightRecorder, ToJsonReportsDropsAndValidates) {
  TraceLogWriter writer("", /*keep_tail=*/true);
  TraceLogHeader header;
  header.n_processes = 2;
  header.n_messages = kCap + 2;
  writer.begin_run(header);
  for (std::uint64_t i = 0; i < kCap + 2; ++i) writer.append(invoke_of(i));
  writer.append(note_record("marker", 6.0));  // evicts a third event
  writer.finish();
  // No path: nothing goes to a file.
  EXPECT_EQ(writer.events_written(), 0u);
  EXPECT_EQ(writer.bytes_written(), 0u);
  ASSERT_NE(writer.tail(), nullptr);

  std::string error;
  const auto doc = json_parse(writer.tail()->to_json("unit test"), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_at("schema").value_or(""),
            "msgorder.flight_recorder/2");
  EXPECT_EQ(doc->string_at("cause").value_or(""), "unit test");
  EXPECT_EQ(doc->number_at("capacity").value_or(0), kCap);
  EXPECT_EQ(doc->number_at("total_records").value_or(0), kCap + 3);
  EXPECT_EQ(doc->number_at("dropped").value_or(0), 3);
  const JsonValue* records = doc->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->as_array().size(), kCap);
  // Records use the tracelog's record grammar: the oldest retained
  // event is x3.s* with its writer-filled Lamport clock, the newest is
  // the note.
  const JsonValue& first = records->as_array().front();
  EXPECT_EQ(first.string_at("type").value_or(""), "event");
  EXPECT_EQ(first.number_at("msg").value_or(0), 3);
  EXPECT_EQ(first.string_at("kind").value_or(""), "s*");
  EXPECT_EQ(first.number_at("peer").value_or(0), 1);
  EXPECT_EQ(first.number_at("lamport").value_or(0), 4);
  const JsonValue& last = records->as_array().back();
  EXPECT_EQ(last.string_at("type").value_or(""), "note");
  EXPECT_EQ(last.string_at("text").value_or(""), "marker");
}

TEST(FlightRecorder, GreenRunProducesNoPostmortem) {
  Rng rng(3);
  WorkloadOptions wopts;
  wopts.n_processes = 3;
  wopts.n_messages = 30;
  const Workload workload = random_workload(wopts, rng);
  Observability obs(ObservabilityOptions{.flight_recorder = true});
  SimOptions sopts;
  sopts.observability = &obs;
  const SimResult result =
      simulate(workload, AsyncProtocol::factory(), 3, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_NE(obs.flight_recorder(), nullptr);
  EXPECT_GT(obs.flight_recorder()->total_records(), 0u);
  // The recorder alone writes no log file.
  EXPECT_EQ(obs.tracelog(), nullptr);
  EXPECT_FALSE(dump_postmortem_if_red("/nonexistent/never-written.json",
                                      result, &obs));
}

// The acceptance e2e: raw async traffic on a jittered network violates
// the causal spec; the armed flight recorder must dump a post-mortem
// whose records include the violating witness's deliveries and a note
// naming the witness.
TEST(FlightRecorder, ViolatingRunDumpsWitnessDeliveries) {
  Rng rng(17);
  WorkloadOptions wopts;
  wopts.n_processes = 4;
  wopts.n_messages = 80;
  wopts.mean_gap = 0.2;
  const Workload workload = random_workload(wopts, rng);
  const ForbiddenPredicate spec = causal_ordering();
  auto monitor =
      std::make_shared<OnlineMonitor>(workload_universe(workload), spec);
  Observability obs(ObservabilityOptions{.flight_recorder = true});
  SimOptions sopts;
  sopts.seed = 29;
  sopts.network.jitter_mean = 3.0;
  sopts.observability = &obs;
  sopts.observers.add(monitor_observer(monitor));
  const SimResult result =
      simulate(workload, AsyncProtocol::factory(), wopts.n_processes, sopts);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_TRUE(monitor->violated()) << "async on jitter must violate causal";

  const std::string path = "flight_recorder_test_postmortem.json";
  std::string error;
  ASSERT_TRUE(dump_postmortem_if_red(path, result, &obs, monitor.get(),
                                     &error))
      << error;

  const auto doc = json_parse_file(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_NE(doc->string_at("cause").value_or("").find("monitor violation"),
            std::string::npos);

  const JsonValue* records = doc->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_FALSE(records->as_array().empty());

  // Every witness message's delivery must appear in the retained tail
  // (the recorder's capacity of 1024 covers this whole run), and the
  // witness note must name each witness variable.
  const ViolationWitness& witness = *monitor->first_witness();
  std::string note;
  for (const JsonValue& r : records->as_array()) {
    if (r.string_at("type").value_or("") == "note") {
      note = r.string_at("text").value_or("");
    }
  }
  EXPECT_NE(note.find("violation witness:"), std::string::npos);
  for (std::size_t v = 0; v < witness.size(); ++v) {
    const MessageId m = witness[v];
    std::string label = "x";
    label += std::to_string(m);
    EXPECT_NE(note.find(label), std::string::npos);
    bool delivered = false;
    for (const JsonValue& r : records->as_array()) {
      if (r.string_at("type").value_or("") == "event" &&
          r.string_at("kind").value_or("") == "r" &&
          r.number_at("msg").value_or(-1) == static_cast<double>(m)) {
        delivered = true;
      }
    }
    EXPECT_TRUE(delivered) << "witness x" << m << " delivery not retained";
  }
}

/// The ring after one red run, plus what the post-mortem made of it.
struct RecordedTail {
  std::vector<TraceLogRecord> ring;
  std::vector<TraceLogRecord> log;  // the whole log file
  std::string dump_last_note;       // text of the dump's final record
};

RecordedTail record_red_run(std::size_t shards) {
  // FIFO does not order causally: on a jittered network the causal
  // monitor goes red.  Enough messages that the ring wraps.
  Rng rng(5);
  WorkloadOptions wopts;
  wopts.n_processes = 4;
  wopts.n_messages = 400;
  wopts.mean_gap = 0.2;
  const Workload workload = random_workload(wopts, rng);
  auto monitor = std::make_shared<OnlineMonitor>(workload_universe(workload),
                                                 causal_ordering());
  const std::string log_path = testing::TempDir() + "msgorder_tail_" +
                               std::to_string(shards) + ".tracelog";
  Observability obs(
      ObservabilityOptions{.flight_recorder = true, .tracelog = log_path});
  SimOptions sopts;
  sopts.seed = 31;
  sopts.shards = shards;
  sopts.network.jitter_mean = 3.0;
  sopts.observability = &obs;
  sopts.observers.add(monitor_observer(monitor));
  const SimResult result =
      simulate(workload, FifoProtocol::factory(), wopts.n_processes, sopts);
  EXPECT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.shards_used, shards);
  EXPECT_TRUE(monitor->violated()) << "fifo on jitter must violate causal";

  RecordedTail out;
  obs.flight_recorder()->for_each(
      [&](const TraceLogRecord& r) { out.ring.push_back(r); });
  std::string error;
  const std::string dump_path = log_path + ".postmortem.json";
  EXPECT_TRUE(dump_postmortem_if_red(dump_path, result, &obs, monitor.get(),
                                     &error))
      << error;
  const auto dump = json_parse_file(dump_path, &error);
  EXPECT_TRUE(dump.has_value()) << error;
  if (dump.has_value() && dump->find("records") != nullptr &&
      !dump->find("records")->as_array().empty()) {
    out.dump_last_note =
        dump->find("records")->as_array().back().string_at("text").value_or(
            "");
  }
  const auto log = load_tracelog(log_path, &error);
  EXPECT_TRUE(log.has_value()) << error;
  if (log.has_value()) out.log = log->records;
  std::remove(dump_path.c_str());
  std::remove(log_path.c_str());
  return out;
}

// The flight recorder is the log's tail: the ring holds exactly the last
// size() records of the finished log file, record for record, and is the
// same at one and at four shards.  The witness note is the dump's alone.
TEST(FlightRecorder, RingIsTheTraceLogTail) {
  const RecordedTail one = record_red_run(1);
  const RecordedTail four = record_red_run(4);
  for (const RecordedTail* run : {&one, &four}) {
    ASSERT_EQ(run->ring.size(), kCap);
    ASSERT_GT(run->log.size(), kCap) << "the ring must wrap";
    const std::size_t offset = run->log.size() - run->ring.size();
    for (std::size_t i = 0; i < run->ring.size(); ++i) {
      ASSERT_TRUE(run->ring[i] == run->log[offset + i]) << "record " << i;
    }
    EXPECT_EQ(run->dump_last_note.rfind("violation witness:", 0), 0u)
        << run->dump_last_note;
    for (const TraceLogRecord& r : run->log) {
      EXPECT_EQ(r.note.find("violation witness:"), std::string::npos);
    }
  }
  ASSERT_EQ(one.ring.size(), four.ring.size());
  for (std::size_t i = 0; i < one.ring.size(); ++i) {
    ASSERT_TRUE(one.ring[i] == four.ring[i]) << "record " << i;
  }
  EXPECT_EQ(one.dump_last_note, four.dump_last_note);
}

}  // namespace
}  // namespace msgorder
