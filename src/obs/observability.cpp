#include "src/obs/observability.hpp"

namespace msgorder {

SimInstruments SimInstruments::create(
    MetricsRegistry& registry, const std::string& label,
    const HistogramOptions& delay_histogram) {
  const std::string prefix = label.empty() ? "" : label + ".";
  SimInstruments ins;
  ins.events = &registry.counter(prefix + "sim.events");
  ins.timer_fires = &registry.counter(prefix + "sim.timer_fires");
  ins.user_packets = &registry.counter(prefix + "net.user_packets");
  ins.control_packets = &registry.counter(prefix + "net.control_packets");
  ins.control_bytes = &registry.counter(prefix + "net.control_bytes");
  ins.tag_bytes = &registry.counter(prefix + "net.tag_bytes");
  ins.drops = &registry.counter(prefix + "net.drops");
  ins.retransmissions = &registry.counter(prefix + "net.retransmissions");
  ins.duplicate_arrivals =
      &registry.counter(prefix + "net.duplicate_arrivals");
  ins.latency =
      &registry.histogram(prefix + "delay.latency", delay_histogram);
  ins.send_delay =
      &registry.histogram(prefix + "delay.send", delay_histogram);
  ins.delivery_delay =
      &registry.histogram(prefix + "delay.delivery", delay_histogram);
  ins.buffered_depth = &registry.gauge(prefix + "sim.buffered_depth");
  ins.hold_segments = &registry.counter(prefix + "hold.segments");
  ins.tracelog_events = &registry.counter(prefix + "tracelog.events_written");
  ins.tracelog_bytes = &registry.counter(prefix + "tracelog.bytes_written");
  for (std::size_t k = 1; k < kHoldKindCount; ++k) {
    ins.hold_time[k] = &registry.histogram(
        prefix + "hold." + to_string(static_cast<HoldKind>(k)),
        delay_histogram);
  }
  return ins;
}

Observability::Observability(ObservabilityOptions options)
    : options_(std::move(options)),
      instruments_(SimInstruments::create(metrics_, options_.label,
                                          options_.delay_histogram)) {
  if (options_.flight_recorder) {
    recorder_.emplace(options_.flight_recorder_capacity);
  }
  if (options_.profiling) profile_.emplace();
  if (!options_.tracelog.empty()) tracelog_.emplace(options_.tracelog);
}

void Observability::begin_run(std::size_t n_messages) {
  if (options_.attribution) attribution_.emplace(n_messages);
}

}  // namespace msgorder
