#include "src/protocols/protocol.hpp"

#include "src/protocols/async.hpp"
#include "src/protocols/causal_rst.hpp"
#include "src/protocols/causal_ses.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/flush.hpp"
#include "src/protocols/global_flush.hpp"
#include "src/protocols/kweaker.hpp"
#include "src/protocols/registry.hpp"
#include "src/protocols/sync_locks.hpp"
#include "src/protocols/sync_sequencer.hpp"
#include "src/protocols/sync_token.hpp"
#include "src/spec/library.hpp"

namespace msgorder {

namespace {

CompositeSpec spec_of(std::vector<ForbiddenPredicate> predicates) {
  CompositeSpec spec;
  spec.predicates = std::move(predicates);
  return spec;
}

/// The flush stack's contract: forward/backward flush per FlushKind
/// color plus both directions for two-way sends.
CompositeSpec flush_spec() {
  CompositeSpec spec = two_way_flush(kTwoWayFlush);
  spec.predicates.push_back(local_forward_flush(kForwardFlush));
  spec.predicates.push_back(local_backward_flush(kBackwardFlush));
  return spec;
}

/// Logically synchronous stacks: crowns up to size 4 (the scopes the
/// verifier explores cannot build larger ones) plus causal ordering,
/// which logical synchrony implies.
CompositeSpec sync_spec() {
  CompositeSpec spec = logically_synchronous(4);
  spec.predicates.push_back(causal_ordering());
  return spec;
}

}  // namespace

std::string to_string(HoldKind kind) {
  switch (kind) {
    case HoldKind::kNone:
      return "none";
    case HoldKind::kWaitPredecessor:
      return "wait_predecessor";
    case HoldKind::kWaitToken:
      return "wait_token";
    case HoldKind::kWaitFlush:
      return "wait_flush";
    case HoldKind::kWaitSeq:
      return "wait_seq";
    case HoldKind::kWaitLock:
      return "wait_lock";
    case HoldKind::kWaitAck:
      return "wait_ack";
  }
  return "unknown";
}

std::vector<RegisteredProtocol> standard_protocols() {
  return {
      {"async", "tagless, delivers on arrival", AsyncProtocol::factory(),
       CompositeSpec{}},
      {"fifo", "tagged, per-channel sequence numbers",
       FifoProtocol::factory(), spec_of({fifo()})},
      {"causal-rst", "tagged, n x n matrix clock",
       CausalRstProtocol::factory(),
       spec_of({fifo(), causal_ordering()})},
      {"causal-ses", "tagged, vector clocks + destination pairs",
       CausalSesProtocol::factory(),
       spec_of({fifo(), causal_ordering()})},
      {"kweaker-1", "tagged, prefix matrix (k = 1)",
       KWeakerCausalProtocol::factory(1), spec_of({k_weaker_causal(1)})},
      {"flush", "tagged, per-channel flush barriers",
       FlushChannelProtocol::factory(), flush_spec()},
      {"global-flush", "tagged, red-frontier barrier matrices",
       GlobalFlushProtocol::factory(1),
       spec_of({global_forward_flush(1)})},
      {"sync-sequencer", "general, central grant sequencer",
       SyncSequencerProtocol::factory(), sync_spec()},
      {"sync-token", "general, circulating token ring",
       SyncTokenProtocol::factory(), sync_spec()},
      {"sync-locks", "general, pairwise ordered endpoint locks",
       SyncLocksProtocol::factory(), sync_spec()},
  };
}

}  // namespace msgorder
