// Verifier reporting: the msgorder.verify/2 JSON artifact
// and counterexample replay into msgorder.tracelog/1 logs, so a failing
// schedule can be interrogated with the existing causal tooling
// (`msgorder_query why x3` / `diverge`) instead of being a bare action
// list.
#pragma once

#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/verify/scenario.hpp"
#include "src/verify/verifier.hpp"

namespace msgorder {

/// Append the msgorder.verify/2 document (an object) for one run of the
/// verifier over a set of stacks.
void write_verify_json(JsonWriter& w, const std::vector<StackReport>& reports,
                       std::size_t n_processes, std::size_t n_messages,
                       const VerifyOptions& options);

/// Re-execute a counterexample schedule with a tracelog attached,
/// producing a msgorder.tracelog/1 file (engine "verifier") whose final
/// note names the violated property.  `factory` must be the SAME stack
/// the verifier ran (for ChannelModel::kLossy the reliability wrap is
/// applied here, as the verifier did).  Returns false with `error` on
/// I/O failure.
bool replay_counterexample(const Scenario& scenario,
                           const ProtocolFactory& factory,
                           const std::string& stack_name,
                           const VerifyOptions& options,
                           const VerifyCounterexample& counterexample,
                           const std::string& path, std::string* error);

}  // namespace msgorder
