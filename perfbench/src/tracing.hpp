// Outside-in tracing for the pipeline benchmark.  Nothing here reaches
// into src/: spans are recorded around the public calls the benchmark
// makes, inside a forwarding Protocol + Host proxy wrapped around a
// stack's factory, and inside a timed observer wrapped around each
// online monitor.
//
// Interval spans (simulate, to_user_run, satisfies, ...) stay in memory
// and are written out when the benchmark ends.  Protocol hooks and
// monitor callbacks fire millions of times per run, so they are not
// spans of their own: each protocol instance accumulates its hook time
// and the time spent in nested Host calls in a block it alone writes
// (sharded cells need no atomics), and the benchmark attaches the folded
// totals to the enclosing simulate span as an aggregate child.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/observer.hpp"
#include "src/protocols/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start = 0;  // seconds since the tracer was created
  double end = 0;
  int parent = -1;   // index into the span list, -1 for a root
  int pass = 0;
};

/// Time folded from many short calls into one child of an interval span.
struct Aggregate {
  std::string name;
  int parent = -1;
  double seconds = 0;
  std::uint64_t calls = 0;
};

class Tracer {
 public:
  int begin(std::string name);
  void end(int id);
  /// Attach accumulated time to the innermost open span.
  void aggregate(std::string name, double seconds, std::uint64_t calls);

  void set_pass(int pass) { pass_ = pass; }

  /// Write {"spans": [...], "aggregates": [...]} to `path`.
  bool write_json(const std::string& path, std::string* error) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
  std::vector<int> open_;
  int pass_ = 0;
};

/// RAII interval span; a null tracer records nothing, which is how the
/// untraced runs pay no tracing cost.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-instance protocol accounting.  hook_s covers on_invoke /
/// on_packet / on_timer; host_s the Host calls made from inside them
/// (engine work and any observers the engine runs inline), so the
/// protocol's own time is hook_s - host_s.
struct HookTotals {
  double hook_s = 0;
  double host_s = 0;
  std::uint64_t hooks = 0;

  double self_s() const { return hook_s - host_s; }
};

/// Wraps a stack's factory so every instance it creates runs behind a
/// timing proxy.  Instances register their totals block under a mutex
/// when created (a handful per run) and then write only to it.
class TimedStack {
 public:
  explicit TimedStack(msgorder::ProtocolFactory inner)
      : inner_(std::move(inner)) {}
  TimedStack(const TimedStack&) = delete;
  TimedStack& operator=(const TimedStack&) = delete;

  /// A factory producing proxied instances; it refers to *this, which
  /// must outlive every simulation that uses it.
  msgorder::ProtocolFactory factory();

  /// Sum over all instances created so far.  Call only after the
  /// simulation that created them has returned.
  HookTotals totals() const;

 private:
  HookTotals& register_instance();

  msgorder::ProtocolFactory inner_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<HookTotals>> instances_;  // guarded by mu_
};

struct ObserverTotals {
  double seconds = 0;
  std::uint64_t events = 0;
};

/// Time every call of `inner` into `totals` (owned by the caller, alive
/// for the whole simulation).  Monitors are merge-phase observers, so
/// one thread writes `totals` even in sharded runs.
msgorder::SimObserver timed_observer(msgorder::SimObserver inner,
                                     ObserverTotals* totals);

}  // namespace perfbench
