// Shared vocabulary of the pipeline benchmark: correctness accounting,
// per-pass samples, and the interface each workload implements.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/tracing.hpp"

namespace perfbench {

/// Every correctness check counts once as attempted and, when wrong,
/// once as failed.  A failing cell is still timed and reported.
class Checks {
 public:
  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
    return ok;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Named numbers one pass produced; the run reports each one's median
/// over its passes.
using Sample = std::map<std::string, double>;

struct PassOutcome {
  /// Host seconds of the pass, without the auto-sharded cells.
  double wall_s = 0;
  /// Host seconds of the auto-sharded cells.  They run inside every
  /// pass but stay out of wall_s: their barrier waits stretch up to 5x
  /// when the host is contended, which swamped the end-to-end figures.
  double sharded_s = 0;
  /// Simulated system events (verifier transitions for verify_4x6).
  double events = 0;
  Sample sample;
  /// Trace digest of every simulated cell, in a fixed cell order: the
  /// traced run asserts they equal the untraced run's.
  std::vector<std::uint64_t> digests;
};

struct RunContext {
  std::uint64_t seed = 0;
  /// Directory for files a pass writes (the flagship tracelog).
  std::string scratch_dir;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Generate inputs and build registries, specs and scenarios.  Called
  /// several times per run (the median is setup_s); each call replaces
  /// the previous state.
  virtual void setup(const RunContext& ctx) = 0;
  /// One complete pass.  `tracer` is null on untraced passes.
  virtual PassOutcome pass(const RunContext& ctx, Tracer* tracer,
                           Checks& checks) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<BenchWorkload> make_workload(const std::string& name);

/// (name, unit) of every per-layer metric, identical for all workloads
/// (a layer a workload bypasses reports 0).
std::vector<std::pair<std::string, std::string>> per_layer_metrics();

double median(std::vector<double> values);

}  // namespace perfbench
