#include "src/poset/diagram.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/util/strings.hpp"

namespace msgorder {

namespace {

/// Merge per-process event sequences into one global linear extension:
/// repeatedly emit an executable head (all its causal predecessors
/// emitted).  For sends: always executable if earlier line events are
/// out; for receives/deliveries: the matching send must be out.
struct Column {
  ProcessId process;
  std::string label;
};

template <typename Seq, typename IsBlocked, typename Label>
std::vector<Column> linearize(const std::vector<Seq>& sequences,
                              const IsBlocked& is_blocked,
                              const Label& label) {
  std::vector<std::size_t> next(sequences.size(), 0);
  std::vector<Column> columns;
  for (;;) {
    bool emitted = false;
    for (ProcessId p = 0; p < sequences.size(); ++p) {
      if (next[p] >= sequences[p].size()) continue;
      const auto& e = sequences[p][next[p]];
      if (is_blocked(e)) continue;
      columns.push_back({p, label(e)});
      ++next[p];
      emitted = true;
      break;
    }
    if (!emitted) break;
  }
  return columns;
}

std::string render(std::size_t n_processes,
                   const std::vector<Column>& columns) {
  std::size_t width = 3;
  for (const Column& c : columns) width = std::max(width, c.label.size());
  std::string out;
  for (ProcessId p = 0; p < n_processes; ++p) {
    out += "P";
    out += std::to_string(p);
    out += ": ";
    for (const Column& c : columns) {
      out += "|";
      out += pad_right(c.process == p ? c.label : "", width);
    }
    out += "|\n";
  }
  return out;
}

}  // namespace

std::string time_diagram(const SystemRun& run) {
  std::vector<bool> send_out(run.universe().size(), false);
  const auto columns = linearize(
      run.sequences(),
      [&](const SystemEvent& e) {
        return e.kind == EventKind::kReceive && !send_out[e.msg];
      },
      [&](const SystemEvent& e) {
        if (e.kind == EventKind::kSend) send_out[e.msg] = true;
        return kind_name(e.kind) + std::to_string(e.msg);
      });
  return render(run.process_count(), columns);
}

std::string time_diagram(const UserRun& run) {
  assert(run.has_schedules());
  std::vector<bool> send_out(run.message_count(), false);
  const auto columns = linearize(
      run.schedules(),
      [&](const ScheduleStep& s) {
        return s.kind == UserEventKind::kDeliver && !send_out[s.msg];
      },
      [&](const ScheduleStep& s) {
        if (s.kind == UserEventKind::kSend) send_out[s.msg] = true;
        return kind_name(s.kind) + std::to_string(s.msg);
      });
  return render(run.process_count(), columns);
}

}  // namespace msgorder
