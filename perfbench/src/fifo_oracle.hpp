// Linear-time FIFO oracle for the 1M-message flagship run.
//
// The registry's offline checker lifts a trace into a dense reachability
// matrix and the online monitor keeps two (2|M|)^2 bit matrices; at
// 10^6 messages both are terabytes, and the FIFO predicate does not
// compile to a monitor automaton.  FIFO needs neither: on every channel
// (src, dst) the deliveries at dst must come in the order of the sends
// at src.  One pass over the sender logs ranks each message within its
// channel, one pass over the receiver logs checks that ranks increase.
#pragma once

#include <optional>
#include <string>

#include "src/sim/trace.hpp"

namespace perfbench {

/// nullopt when every channel of `trace` delivers in send order (and
/// every message sent was delivered exactly once); otherwise a
/// description of the first offending delivery.
std::optional<std::string> fifo_violation(const msgorder::Trace& trace);

}  // namespace perfbench
