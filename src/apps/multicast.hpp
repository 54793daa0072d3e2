// Multicast ordering — the extension the paper's conclusion sketches
// ("the results in this paper can be extended to incorporate multicast
// messages").  A multicast to the whole group is encoded as one unicast
// copy per destination sharing a `Message::mcast` group id; the
// specifications then constrain the copies jointly:
//
//   * causal broadcast ordering: if the send of group g1 causally
//     precedes the send of g2, no process delivers its g2 copy before
//     its g1 copy (the multicast analogue of X_co — tagged class, the
//     BSS protocol below implements it with vector clocks);
//   * total order (atomic broadcast): any two processes deliver their
//     copies of any two groups in the same relative order (general
//     class: the ISIS-style protocol below needs a sequencer and
//     control messages, consistent with Theorem 1's separation).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/poset/user_run.hpp"
#include "src/protocols/protocol.hpp"
#include "src/sim/workload.hpp"
#include "src/util/rng.hpp"

namespace msgorder {

struct BroadcastWorkloadOptions {
  std::size_t n_processes = 4;
  std::size_t n_broadcasts = 50;
  SimTime mean_gap = 1.0;
};

/// Each broadcast expands to n-1 simultaneous unicast copies sharing an
/// mcast group id (0, 1, 2, ... in invoke order).
Workload broadcast_workload(const BroadcastWorkloadOptions& options,
                            Rng& rng);

// ---- Checkers (oracles over the user view) ------------------------------

/// The first copy's send stands in for the group's send event.
std::optional<UserEvent> group_send(const UserRun& run, int group);
/// The copy of `group` delivered at process p, if any.
std::optional<MessageId> group_copy_at(const UserRun& run, int group,
                                       ProcessId p);

/// Causal broadcast ordering holds: send(g1) |> send(g2) implies no
/// process delivers g2's copy before g1's copy.
bool causal_broadcast_ok(const UserRun& run);

/// Total order holds: all processes deliver their copies of any two
/// groups in the same relative order.
bool total_order_ok(const UserRun& run);

// ---- Protocols -----------------------------------------------------------

/// Copies go out immediately, delivered on arrival (the baseline that
/// violates both specs under jitter).
class AsyncBroadcast final : public Protocol {
 public:
  explicit AsyncBroadcast(Host& host) : host_(host) {}
  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "bcast-async"; }
  static ProtocolFactory factory();

 private:
  Host& host_;
};

/// Birman-Schiper-Stephenson causal broadcast: one vector clock counting
/// broadcasts per process; copy of the b-th broadcast by i is delivered
/// at j when j has delivered broadcast b-1 from i and everything the
/// sender had delivered.  Tag O(n); no control messages (tagged class).
class CausalBroadcastBss final : public Protocol {
 public:
  explicit CausalBroadcastBss(Host& host)
      : host_(host), delivered_(host.process_count()) {}
  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "bcast-bss"; }
  static ProtocolFactory factory();

 private:
  struct Buffered {
    MessageId msg;
    ProcessId origin;
    /// The tag: the sender's broadcast vector BEFORE this one.
    VectorClock clock;
  };
  bool deliverable(const Buffered& b) const;
  void drain();

  Host& host_;
  VectorClock delivered_;  // delivered_[i] = broadcasts from i delivered
  int last_group_ticked_ = -1;
  VectorClock own_clock_before_{};  // stamped once per group
  std::vector<Buffered> buffer_;
};

/// ISIS-style sequenced atomic broadcast: copies carry the group id;
/// process 0 assigns a global sequence number per group and broadcasts
/// ORDER control messages; receivers deliver copies in sequence order.
class TotalOrderBroadcast final : public Protocol {
 public:
  explicit TotalOrderBroadcast(Host& host) : host_(host) {}
  void on_invoke(const Message& m) override;
  void on_packet(const Packet& packet) override;
  std::string name() const override { return "bcast-total"; }
  static ProtocolFactory factory();

 private:
  static constexpr ProcessId kSequencer = 0;
  void learn_order(int group, std::uint32_t seq);
  void assign_order(int group);
  void drain();

  Host& host_;
  std::map<std::uint32_t, int> seq_to_group_;  // global order as learned
  std::map<int, MessageId> pending_copy_;      // copies awaiting delivery
  std::set<int> my_groups_;                    // broadcasts we originated
  std::uint32_t next_deliver_ = 0;
  std::uint32_t next_seq_ = 0;                 // sequencer only
  std::set<int> sequenced_;                    // sequencer only
};

}  // namespace msgorder
