// Tests for the trace-log index + query engine (ISSUE 9): causal cones
// (BFS over the event edges) against a brute-force reachability check,
// consistent cuts, why-blocked chains on a token protocol, the
// run-divergence bisector on identical and deliberately perturbed runs,
// and the msgorder_query subcommand renderings the CI smoke tests grep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/obs/tracelog.hpp"
#include "src/obs/tracelog_index.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/sync_token.hpp"
#include "src/sim/simulator.hpp"

namespace msgorder {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "msgorder_" + name;
}

struct Fixture {
  std::string path;
  LoadedTraceLog log;
};

/// One recorded sync-token run (tokens mean real wait_token holds with
/// blocking-process references — the why-chain's food).
Fixture record_sync_token(const std::string& name, std::size_t shards = 1,
                          std::uint64_t perturb_xor = 0) {
  Rng rng(404);
  WorkloadOptions wopts;
  wopts.n_processes = 4;
  wopts.n_messages = 50;
  wopts.mean_gap = 0.3;
  const Workload workload = random_workload(wopts, rng);
  Fixture fx;
  fx.path = temp_path(name);
  ObservabilityOptions oopts;
  oopts.tracelog = fx.path;
  Observability obs(oopts);
  SimOptions sopts;
  sopts.seed = 31;
  sopts.network.jitter_mean = 3.0;
  sopts.shards = shards;
  sopts.observability = &obs;
  if (perturb_xor != 0) {
    sopts.network.perturb_channel_xor = perturb_xor;
    sopts.network.perturb_src = workload.front().message.src;
    sopts.network.perturb_dst = workload.front().message.dst;
  }
  const SimResult result =
      simulate(workload, SyncTokenProtocol::factory(), 4, sopts);
  EXPECT_TRUE(result.completed) << result.error;
  std::string error;
  auto log = load_tracelog(fx.path, &error);
  EXPECT_TRUE(log.has_value()) << error;
  if (log.has_value()) fx.log = std::move(*log);
  return fx;
}

/// Brute-force causal reachability: does `from` reach `to` following
/// program order + send->receive edges?  Ground truth for the index.
bool reaches(const TraceLogIndex& index, std::size_t from, std::size_t to) {
  if (from == to) return true;
  std::vector<std::size_t> stack = {from};
  std::set<std::size_t> seen = {from};
  while (!stack.empty()) {
    const std::size_t ev = stack.back();
    stack.pop_back();
    for (std::size_t next = ev + 1; next < index.event_count(); ++next) {
      // Recompute edges naively: program order or channel edge.
      const TraceLogRecord& a = index.event(ev);
      const TraceLogRecord& b = index.event(next);
      bool edge = false;
      if (a.process == b.process) {
        // Program-order edge only to the *next* event at the process.
        bool between = false;
        for (std::size_t mid = ev + 1; mid < next; ++mid) {
          if (index.event(mid).process == a.process) between = true;
        }
        edge = !between;
      }
      if (a.event.kind == EventKind::kSend &&
          b.event.kind == EventKind::kReceive &&
          a.event.msg == b.event.msg) {
        edge = true;
      }
      if (edge && seen.insert(next).second) {
        if (next == to) return true;
        stack.push_back(next);
      }
    }
  }
  return false;
}

TEST(TraceLogIndex, ConesMatchBruteForce) {
  const Fixture fx = record_sync_token("index_fixture.tracelog");
  ASSERT_FALSE(fx.log.events.empty());
  const TraceLogIndex index = TraceLogIndex::build(fx.log);

  // Spot-check a few anchors' full cones against the brute force (it is
  // quadratic, so sample).
  for (std::size_t ev = 0; ev < index.event_count();
       ev += index.event_count() / 17 + 1) {
    const auto past = index.causal_past(ev);
    const auto future = index.causal_future(ev);
    EXPECT_TRUE(std::is_sorted(past.begin(), past.end()));
    EXPECT_TRUE(std::is_sorted(future.begin(), future.end()));
    // The anchor is a member of both of its own cones.
    EXPECT_TRUE(std::find(past.begin(), past.end(), ev) != past.end());
    EXPECT_TRUE(std::find(future.begin(), future.end(), ev) != future.end());
    for (const std::size_t p : past) {
      EXPECT_TRUE(reaches(index, p, ev)) << p << " not an ancestor of " << ev;
    }
    for (const std::size_t f : future) {
      EXPECT_TRUE(reaches(index, ev, f))
          << f << " not a descendant of " << ev;
    }
  }

  // Exhaustive pairwise check on a small prefix, both directions.
  const std::size_t n = std::min<std::size_t>(index.event_count(), 40);
  for (std::size_t a = 0; a < n; ++a) {
    const auto past = index.causal_past(a);
    const auto future = index.causal_future(a);
    for (std::size_t b = 0; b < n; ++b) {
      const bool in_past =
          std::find(past.begin(), past.end(), b) != past.end();
      EXPECT_EQ(in_past, reaches(index, b, a))
          << "cone membership of " << b << " in past(" << a << ")";
      const bool in_future =
          std::find(future.begin(), future.end(), b) != future.end();
      EXPECT_EQ(in_future, reaches(index, a, b))
          << "cone membership of " << b << " in future(" << a << ")";
    }
  }
}

TEST(TraceLogIndex, SendReceiveEdgeAndLamportAgree) {
  const Fixture fx = record_sync_token("lamport_fixture.tracelog");
  const TraceLogIndex index = TraceLogIndex::build(fx.log);
  // Every receive has its send in the causal past, and Lamport clocks
  // are monotone along cone membership.
  for (std::size_t ev = 0; ev < index.event_count(); ++ev) {
    const TraceLogRecord& rec = index.event(ev);
    if (rec.event.kind != EventKind::kReceive) continue;
    const auto send = index.find_event(rec.event.msg, EventKind::kSend);
    ASSERT_TRUE(send.has_value());
    const auto past = index.causal_past(ev);
    EXPECT_TRUE(std::find(past.begin(), past.end(), *send) != past.end());
    EXPECT_LT(index.event(*send).lamport, rec.lamport);
  }
}

TEST(TraceLogIndex, CutAtIsConsistentAndAccountsInFlight) {
  const Fixture fx = record_sync_token("cut_fixture.tracelog");
  const TraceLogIndex index = TraceLogIndex::build(fx.log);
  const std::size_t mid_ev = index.event_count() / 2;
  const SimTime t = index.event(mid_ev).time;
  const CutResult cut = cut_at(index, t);
  EXPECT_TRUE(cut.consistent);
  EXPECT_GT(cut.events_in_cut, 0u);
  EXPECT_EQ(cut.frontier.size(), fx.log.header.n_processes);
  // Every in-flight message straddles the cut: send <= t, receive > t
  // (or missing).
  for (const MessageId m : cut.in_flight) {
    const auto send = index.find_event(m, EventKind::kSend);
    ASSERT_TRUE(send.has_value());
    EXPECT_LE(index.event(*send).time, t);
    const auto recv = index.find_event(m, EventKind::kReceive);
    if (recv.has_value()) EXPECT_GT(index.event(*recv).time, t);
  }
  // Cuts at the extremes: before the first event, and after the last.
  const CutResult empty = cut_at(index, index.event(0).time - 1.0);
  EXPECT_EQ(empty.events_in_cut, 0u);
  EXPECT_TRUE(empty.in_flight.empty());
  const CutResult full =
      cut_at(index, index.event(index.event_count() - 1).time + 1.0);
  EXPECT_EQ(full.events_in_cut, index.event_count());
  EXPECT_TRUE(full.in_flight.empty());
}

TEST(TraceLogIndex, WhyBlockedWalksToTheRootBlocker) {
  const Fixture fx = record_sync_token("why_fixture.tracelog");
  // Find a message with a hold report; the chain must start there and
  // terminate (root or cycle) within the universe.
  std::optional<MessageId> held;
  for (const TraceLogRecord& rec : fx.log.records) {
    if (rec.type == TraceLogRecord::Type::kHold) {
      held = rec.held_msg;
      break;
    }
  }
  ASSERT_TRUE(held.has_value()) << "sync-token run produced no holds";
  const WhyChain chain = why_blocked(fx.log, *held);
  EXPECT_EQ(chain.msg, *held);
  ASSERT_FALSE(chain.links.empty());
  EXPECT_EQ(chain.links.front().msg, *held);
  EXPECT_GT(chain.links.front().reports, 0u);
  for (std::size_t i = 0; i + 1 < chain.links.size(); ++i) {
    ASSERT_TRUE(chain.links[i].reason.blocking_msg.has_value());
    EXPECT_EQ(*chain.links[i].reason.blocking_msg, chain.links[i + 1].msg);
  }
  if (!chain.cycle) {
    // The root link's reason names no further blocking message that was
    // itself reported held.
    const WhyLink& root = chain.links.back();
    if (root.reason.blocking_msg.has_value()) {
      const WhyChain next = why_blocked(fx.log, *root.reason.blocking_msg);
      EXPECT_TRUE(next.links.empty());
    }
  }
  // A message that was never held reports an empty chain.
  const WhyChain none = why_blocked(fx.log, 9999);
  EXPECT_TRUE(none.links.empty());
}

TEST(Queries, TextAndJsonRenderingsAreWellFormed) {
  const Fixture fx = record_sync_token("query_fixture.tracelog");
  std::string error;

  const QueryOutput summary = query_summary(fx.path);
  EXPECT_EQ(summary.exit_code, 0);
  EXPECT_NE(summary.text.find("engine sequential"), std::string::npos)
      << summary.text;
  EXPECT_NE(summary.text.find("events"), std::string::npos);
  ASSERT_TRUE(json_parse(summary.json, &error).has_value()) << error;
  EXPECT_NE(summary.json.find("\"schema\":\"msgorder.query/1\""),
            std::string::npos);
  EXPECT_NE(summary.json.find("\"subcommand\":\"summary\""),
            std::string::npos);

  const QueryOutput cone =
      query_cone(fx.path, 0, EventKind::kDeliver, false, 0);
  EXPECT_EQ(cone.exit_code, 0);
  EXPECT_NE(cone.text.find("<- anchor"), std::string::npos);
  ASSERT_TRUE(json_parse(cone.json, &error).has_value()) << error;

  // A limit keeps the tail and reports what it dropped.
  const QueryOutput limited =
      query_cone(fx.path, 0, EventKind::kDeliver, false, 2);
  EXPECT_EQ(limited.exit_code, 0);
  ASSERT_TRUE(json_parse(limited.json, &error).has_value()) << error;

  const QueryOutput cut = query_cut(fx.path, 20.0);
  EXPECT_EQ(cut.exit_code, 0);
  EXPECT_NE(cut.text.find("cut at t="), std::string::npos) << cut.text;
  EXPECT_NE(cut.text.find("in flight"), std::string::npos);
  ASSERT_TRUE(json_parse(cut.json, &error).has_value()) << error;

  std::optional<MessageId> held;
  for (const TraceLogRecord& rec : fx.log.records) {
    if (rec.type == TraceLogRecord::Type::kHold) {
      held = rec.held_msg;
      break;
    }
  }
  ASSERT_TRUE(held.has_value());
  const QueryOutput why = query_why(fx.path, *held);
  EXPECT_EQ(why.exit_code, 0);
  EXPECT_NE(why.text.find("wait_"), std::string::npos) << why.text;
  ASSERT_TRUE(json_parse(why.json, &error).has_value()) << error;

  // Errors: missing file and unknown anchor exit 2 with an "error" key.
  const QueryOutput missing = query_summary(temp_path("nope.tracelog"));
  EXPECT_EQ(missing.exit_code, 2);
  ASSERT_TRUE(json_parse(missing.json, &error).has_value()) << error;
  EXPECT_NE(missing.json.find("\"error\""), std::string::npos);
  const QueryOutput bad_anchor =
      query_cone(fx.path, 9999, EventKind::kDeliver, false, 0);
  EXPECT_EQ(bad_anchor.exit_code, 2);

  EXPECT_EQ(parse_event_kind("s*"), EventKind::kInvoke);
  EXPECT_EQ(parse_event_kind("deliver"), EventKind::kDeliver);
  EXPECT_EQ(parse_event_kind("bogus"), std::nullopt);
}

// The acceptance criterion: identical-seed sequential vs sharded logs
// report no divergence; a run with one channel's RNG stream perturbed
// names the exact first diverging record with causal context from both
// sides.
TEST(Diverge, SequentialVsShardedIsCleanAndPerturbedIsBisected) {
  const Fixture seq = record_sync_token("div_seq.tracelog", 1);
  const Fixture shd = record_sync_token("div_shd.tracelog", 4);
  const Fixture pert =
      record_sync_token("div_pert.tracelog", 1, 0x9e3779b97f4a7c15ULL);

  // Clean pair.
  const DivergenceReport clean = diverge_tracelogs(seq.path, shd.path);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_FALSE(clean.diverged);
  EXPECT_EQ(clean.records_compared, seq.log.records.size());
  EXPECT_TRUE(clean.warnings.empty());
  const QueryOutput clean_q = query_diverge(seq.path, shd.path, 12);
  EXPECT_EQ(clean_q.exit_code, 0);
  EXPECT_NE(clean_q.text.find("no divergence"), std::string::npos);
  std::string error;
  ASSERT_TRUE(json_parse(clean_q.json, &error).has_value()) << error;
  EXPECT_NE(clean_q.json.find("\"diverged\":false"), std::string::npos);

  // Perturbed pair: the report must name the exact first index at which
  // the two record streams differ — verified against a manual scan.
  const DivergenceReport div = diverge_tracelogs(seq.path, pert.path);
  ASSERT_TRUE(div.ok) << div.error;
  ASSERT_TRUE(div.diverged);
  std::size_t expected = 0;
  const std::size_t common =
      std::min(seq.log.records.size(), pert.log.records.size());
  while (expected < common &&
         seq.log.records[expected] == pert.log.records[expected]) {
    ++expected;
  }
  EXPECT_EQ(div.index, expected);
  EXPECT_FALSE(div.field.empty());
  ASSERT_TRUE(div.record_a.has_value());
  ASSERT_TRUE(div.record_b.has_value());
  EXPECT_FALSE(*div.record_a == *div.record_b);
  // Non-empty causal-past context from BOTH logs.
  EXPECT_FALSE(div.context_a.empty());
  EXPECT_FALSE(div.context_b.empty());

  const QueryOutput div_q = query_diverge(seq.path, pert.path, 12);
  EXPECT_EQ(div_q.exit_code, 1);
  EXPECT_NE(div_q.text.find("diverge"), std::string::npos);
  EXPECT_NE(div_q.text.find("<- diverging record"), std::string::npos);
  ASSERT_TRUE(json_parse(div_q.json, &error).has_value()) << error;
  EXPECT_NE(div_q.json.find("\"diverged\":true"), std::string::npos);
  EXPECT_NE(div_q.json.find("\"context_a\""), std::string::npos);
  EXPECT_NE(div_q.json.find("\"context_b\""), std::string::npos);

  // Self-compare is trivially clean.
  const DivergenceReport self = diverge_tracelogs(seq.path, seq.path);
  ASSERT_TRUE(self.ok);
  EXPECT_FALSE(self.diverged);

  std::remove(seq.path.c_str());
  std::remove(shd.path.c_str());
  std::remove(pert.path.c_str());
}

TEST(Diverge, MismatchedSetupsWarnAndMissingFilesError) {
  const Fixture a = record_sync_token("warn_a.tracelog");
  // A log with a different seed: still diffable, but warned about.
  const std::string b_path = temp_path("warn_b.tracelog");
  {
    Rng rng(404);
    WorkloadOptions wopts;
    wopts.n_processes = 4;
    wopts.n_messages = 50;
    wopts.mean_gap = 0.3;
    const Workload workload = random_workload(wopts, rng);
    ObservabilityOptions oopts;
    oopts.tracelog = b_path;
    Observability obs(oopts);
    SimOptions sopts;
    sopts.seed = 32;  // != 31
    sopts.network.jitter_mean = 3.0;
    sopts.observability = &obs;
    const SimResult result =
        simulate(workload, SyncTokenProtocol::factory(), 4, sopts);
    ASSERT_TRUE(result.completed) << result.error;
  }
  const DivergenceReport warned = diverge_tracelogs(a.path, b_path);
  ASSERT_TRUE(warned.ok) << warned.error;
  EXPECT_FALSE(warned.warnings.empty());

  const DivergenceReport missing =
      diverge_tracelogs(a.path, temp_path("absent.tracelog"));
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.error.empty());
  const QueryOutput missing_q =
      query_diverge(a.path, temp_path("absent.tracelog"), 12);
  EXPECT_EQ(missing_q.exit_code, 2);

  std::remove(a.path.c_str());
  std::remove(b_path.c_str());
}

// A hostile header — valid magic and length, then 400 KB of JSON nested
// 200k deep — is a load error (exit 2), not a stack overflow in the
// header parser.
TEST(Queries, DeeplyNestedHeaderIsRejectedWithExitCode2) {
  const std::string path = temp_path("deep_header.tracelog");
  {
    const std::string header =
        std::string(200'000, '[') + std::string(200'000, ']');
    std::string bytes = "MOTLOG1\n";
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((header.size() >> (8 * i)) & 0xff));
    }
    bytes += header;
    std::string io_error;
    ASSERT_TRUE(write_text_file(path, bytes, &io_error)) << io_error;
  }
  std::string error;
  EXPECT_FALSE(load_tracelog(path, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  const QueryOutput summary = query_summary(path);
  EXPECT_EQ(summary.exit_code, 2);
  EXPECT_NE(summary.text.find("bad header JSON"), std::string::npos)
      << summary.text;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace msgorder
