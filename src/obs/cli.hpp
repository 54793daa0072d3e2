// Shared flag parsing for the example binaries (ISSUE 2):
//   --json <path>             write a machine-readable report
//   --trace <path>            write a Chrome-trace JSON of the run
//   --flight-recorder <path>  arm the flight recorder; dump a post-mortem
//                             JSON there when the run goes red (ISSUE 4)
//   --profile <path>          enable the engine profiler and write its
//                             msgorder.profile/2 JSON there
//   --tracelog <path>         record the causal trace log there
//                             (msgorder.tracelog/1, ISSUE 9); query it
//                             with tools/msgorder_query
// Unrecognized arguments are left in place (compacted to the front of
// argv past argv[0]) so examples with their own positional arguments
// keep working.
#pragma once

#include <string>

namespace msgorder {

struct ObsCli {
  std::string json_path;    // empty = no report requested
  std::string trace_path;   // empty = no chrome trace requested
  std::string flight_path;  // empty = flight recorder not armed
  std::string profile_path;  // empty = profiler off
  std::string tracelog_path;  // empty = no causal trace log
  bool ok = true;
  std::string error;
};

/// Extract --json/--trace from argv, shifting the remaining arguments
/// down and updating argc.
ObsCli parse_obs_cli(int& argc, char** argv);

}  // namespace msgorder
