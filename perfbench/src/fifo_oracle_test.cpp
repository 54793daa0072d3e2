// Self-test of the flagship FIFO oracle: hand-built traces with a known
// verdict, plus one simulated run per side (the FIFO stack must pass,
// the tagless async stack on a jittery network must be flagged).
//
//   fifo_oracle_test        exit 0 when every case gives its verdict
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "perfbench/src/fifo_oracle.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/fifo.hpp"
#include "src/sim/simulator.hpp"

namespace {

using namespace msgorder;

/// Channel p0 -> p1 carries x0, x1, x2; p1 -> p0 carries x3.  Sends
/// happen in id order; `deliveries` lists the order at p1.
Trace hand_trace(const std::vector<MessageId>& deliveries) {
  const std::vector<Message> universe = {
      {0, 0, 1, 0, -1}, {1, 0, 1, 0, -1}, {2, 0, 1, 0, -1}, {3, 1, 0, 0, -1}};
  Trace trace(universe, 2);
  double t = 0;
  for (MessageId m = 0; m < 3; ++m) {
    trace.record(0, {m, EventKind::kInvoke}, t);
    trace.record(0, {m, EventKind::kSend}, t += 1);
  }
  trace.record(1, {3, EventKind::kInvoke}, t);
  trace.record(1, {3, EventKind::kSend}, t += 1);
  for (const MessageId m : deliveries) {
    trace.record(1, {m, EventKind::kReceive}, t += 1);
    trace.record(1, {m, EventKind::kDeliver}, t += 1);
  }
  trace.record(0, {3, EventKind::kReceive}, t += 1);
  trace.record(0, {3, EventKind::kDeliver}, t += 1);
  return trace;
}

bool expect(const char* name, const Trace& trace, bool want_violation) {
  const auto violation = perfbench::fifo_violation(trace);
  const bool ok = violation.has_value() == want_violation;
  std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", name,
              violation ? violation->c_str() : "fifo holds");
  return ok;
}

Trace simulated(const ProtocolFactory& factory) {
  Rng rng(7);
  WorkloadOptions wopts;
  wopts.n_processes = 4;
  wopts.n_messages = 400;
  wopts.mean_gap = 0.2;
  const Workload workload = random_workload(wopts, rng);
  SimOptions sopts;
  sopts.seed = 11;
  sopts.network.jitter_mean = 5.0;
  return simulate(workload, factory, wopts.n_processes, sopts).trace;
}

}  // namespace

int main() {
  bool ok = true;
  ok &= expect("in order", hand_trace({0, 1, 2}), false);
  ok &= expect("hand-reordered x2 before x1", hand_trace({0, 2, 1}), true);
  ok &= expect("hand-reordered x1 first", hand_trace({1, 0, 2}), true);
  ok &= expect("x2 never delivered", hand_trace({0, 1}), true);
  ok &= expect("x1 delivered twice", hand_trace({0, 1, 1, 2}), true);
  ok &= expect("simulated fifo stack", simulated(FifoProtocol::factory()),
               false);
  ok &= expect("simulated async stack", simulated(AsyncProtocol::factory()),
               true);
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
