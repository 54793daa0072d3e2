#include "src/obs/profile.hpp"

#include "src/obs/json.hpp"

namespace msgorder {

void SimProfile::begin_run(const char* engine, std::size_t n_shards,
                           std::size_t n_workers, SimTime lookahead) {
  engine_ = engine;
  shards_.assign(n_shards, ShardProfileRow{});
  workers_.assign(n_workers, WorkerProfileRow{});
  lookahead_ = lookahead;
  windows_ = 0;
  prev_window_start_ = 0;
  advance_sum_ = 0;
  advance_max_ = 0;
}

void SimProfile::sample(std::size_t s, SimTime window_end,
                        std::uint64_t entries, std::size_t heap_depth) {
  ShardProfileRow& row = shards_[s];
  if (row.samples.size() >= kMaxSamplesPerShard) {
    ++row.samples_dropped;
    return;
  }
  row.samples.push_back({window_end, static_cast<std::uint32_t>(entries),
                         static_cast<std::uint32_t>(heap_depth)});
}

void SimProfile::on_window(SimTime global_min) {
  if (windows_ > 0) {
    const SimTime advance = global_min - prev_window_start_;
    advance_sum_ += advance;
    if (advance > advance_max_) advance_max_ = advance;
  }
  prev_window_start_ = global_min;
  ++windows_;
}

std::uint64_t SimProfile::total_events() const {
  std::uint64_t n = 0;
  for (const ShardProfileRow& row : shards_) n += row.events;
  return n;
}

std::uint64_t SimProfile::total_entries() const {
  std::uint64_t n = 0;
  for (const ShardProfileRow& row : shards_) n += row.entries;
  return n;
}

std::uint64_t SimProfile::total_stall_lookahead() const {
  std::uint64_t n = 0;
  for (const ShardProfileRow& row : shards_) n += row.stall_lookahead;
  return n;
}

std::uint64_t SimProfile::total_stall_empty() const {
  std::uint64_t n = 0;
  for (const ShardProfileRow& row : shards_) n += row.stall_empty;
  return n;
}

void SimProfile::write_json(JsonWriter& w) const {
  std::uint64_t samples_retained = 0;
  std::uint64_t samples_dropped = 0;
  for (const ShardProfileRow& row : shards_) {
    samples_retained += row.samples.size();
    samples_dropped += row.samples_dropped;
  }
  w.begin_object();
  w.kv("schema", "msgorder.profile/2");
  w.kv("engine", engine_);
  w.kv("shards", static_cast<std::uint64_t>(shards_.size()));
  w.kv("workers", static_cast<std::uint64_t>(workers_.size()));
  w.kv("lookahead", lookahead_);
  w.kv("windows", windows_);
  w.kv("window_advance_mean",
       windows_ > 1 ? advance_sum_ / static_cast<double>(windows_ - 1) : 0.0);
  w.kv("window_advance_max", advance_max_);
  w.kv("entries_total", total_entries());
  w.kv("events_total", total_events());
  w.key("stalls").begin_object();
  w.kv("lookahead", total_stall_lookahead());
  w.kv("empty_heap", total_stall_empty());
  w.end_object();
  w.key("per_shard").begin_array();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardProfileRow& row = shards_[s];
    w.begin_object();
    w.kv("shard", static_cast<std::uint64_t>(s));
    w.kv("windows", row.windows);
    w.kv("busy_windows", row.busy_windows);
    w.kv("stall_lookahead", row.stall_lookahead);
    w.kv("stall_empty", row.stall_empty);
    w.kv("entries", row.entries);
    w.kv("events", row.events);
    w.kv("max_entries_in_window", row.max_entries_in_window);
    w.kv("heap_depth_hwm", row.heap_depth_hwm);
    w.end_object();
  }
  w.end_array();
  w.key("per_worker").begin_array();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    w.begin_object();
    w.kv("worker", static_cast<std::uint64_t>(i));
    w.kv("barrier_waits", workers_[i].barrier_waits);
    w.kv("barrier_wait_seconds", workers_[i].barrier_wait_seconds);
    w.end_object();
  }
  w.end_array();
  w.kv("samples_retained", samples_retained);
  w.kv("samples_dropped", samples_dropped);
  w.end_object();
}

std::string SimProfile::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

}  // namespace msgorder
