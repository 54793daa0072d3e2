#include "perfbench/src/fifo_oracle.hpp"

#include <cstdint>
#include <vector>

namespace perfbench {

using msgorder::EventKind;
using msgorder::Message;
using msgorder::TimedEvent;

std::optional<std::string> fifo_violation(const msgorder::Trace& trace) {
  const std::vector<Message>& universe = trace.universe();
  const auto& logs = trace.logs();
  const std::size_t n = logs.size();
  constexpr std::uint64_t kUnsent = ~std::uint64_t{0};

  // rank[m]: position of m's send among the sends on its channel;
  // sent[src * n + dst]: sends on that channel.
  std::vector<std::uint64_t> rank(universe.size(), kUnsent);
  std::vector<std::uint64_t> sent(n * n, 0);
  for (std::size_t src = 0; src < n; ++src) {
    for (const TimedEvent& te : logs[src]) {
      if (te.event.kind != EventKind::kSend) continue;
      const Message& m = universe[te.event.msg];
      if (m.src != src || m.dst >= n || rank[m.id] != kUnsent) {
        return "x" + std::to_string(m.id) + " sent twice or off its channel";
      }
      rank[m.id] = sent[src * n + m.dst]++;
    }
  }

  // next[src]: the rank the next delivery at dst from src must carry.
  std::vector<std::uint64_t> next(n);
  for (std::size_t dst = 0; dst < n; ++dst) {
    std::fill(next.begin(), next.end(), 0);
    for (const TimedEvent& te : logs[dst]) {
      if (te.event.kind != EventKind::kDeliver) continue;
      const Message& m = universe[te.event.msg];
      if (m.dst != dst || rank[m.id] == kUnsent) {
        return "x" + std::to_string(m.id) + " delivered without a send";
      }
      if (rank[m.id] != next[m.src]) {
        return "x" + std::to_string(m.id) + " delivered at p" +
               std::to_string(dst) + " as send #" +
               std::to_string(rank[m.id]) + " of channel p" +
               std::to_string(m.src) + "->p" + std::to_string(dst) +
               ", expected #" + std::to_string(next[m.src]);
      }
      ++next[m.src];
    }
    for (std::size_t src = 0; src < n; ++src) {
      if (next[src] != sent[src * n + dst]) {
        return "channel p" + std::to_string(src) + "->p" +
               std::to_string(dst) + " delivered " +
               std::to_string(next[src]) + " of " +
               std::to_string(sent[src * n + dst]) + " sends";
      }
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
