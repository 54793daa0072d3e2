#include "src/sim/engine_detail.hpp"

namespace msgorder::sim_detail {

ObsSink::ObsSink(Observability* observability, const ObserverMux* observers,
                 const Trace* trace, std::size_t n_messages)
    : observers_(observers), trace_(trace) {
  if (observability == nullptr) return;
  // Sizes a fresh attribution table for this run; the flight recorder
  // (if any) persists across runs by design.
  observability->begin_run(n_messages);
  instruments_ = &observability->instruments();
  attribution_ = observability->attribution();
  recorder_ = observability->flight_recorder();
  profile_ = observability->profile();
  tracelog_ = observability->tracelog();
  label_ = observability->options().label;
}

void ObsSink::open_tracelog(const char* engine, std::size_t shards,
                            std::size_t workers, SimTime lookahead,
                            std::uint64_t seed, std::size_t n_processes) {
  if (tracelog_ == nullptr) return;
  TraceLogHeader header;
  header.schema = "msgorder.tracelog/1";
  header.engine = engine;
  header.protocol = label_;
  header.n_processes = n_processes;
  header.n_messages = trace_->universe().size();
  header.seed = seed;
  header.shards = shards;
  header.workers = workers;
  header.lookahead = lookahead;
  tracelog_->begin_run(header);
  tracelog_finished_ = false;
}

void ObsSink::finish_tracelog() {
  if (tracelog_ == nullptr || tracelog_finished_) return;
  tracelog_finished_ = true;
  tracelog_->finish();
  if (instruments_ != nullptr) {
    instruments_->tracelog_events->inc(tracelog_->events_written());
    instruments_->tracelog_bytes->inc(tracelog_->bytes_written());
  }
}

void ObsSink::record(ProcessId at, SystemEvent e, SimTime t,
                     std::uint64_t tiebreak) {
  if (tracelog_ != nullptr) {
    // The peer is the channel's other endpoint: the destination before
    // the message crosses (invoke/send), the source after (receive/
    // deliver) — with the header seed this names the RNG stream the
    // message's delay came from (TraceLogHeader::channel_stream_seed).
    const Message& m = trace_->universe()[e.msg];
    const bool outbound =
        e.kind == EventKind::kInvoke || e.kind == EventKind::kSend;
    tracelog_->append_event(at, e, t, tiebreak, outbound ? m.dst : m.src,
                            m.color);
  }
  if (instruments_ != nullptr) update_instruments(e);
  if (recorder_ != nullptr) recorder_->on_event(at, e, t);
  if (attribution_ != nullptr) {
    // The inhibited event executing closes its open hold segment, so
    // per-reason segment times sum exactly to the recorded delay.
    if (e.kind == EventKind::kSend) {
      publish_closed(attribution_->on_release(e.msg, HoldPhase::kSend, t));
    } else if (e.kind == EventKind::kDeliver) {
      publish_closed(attribution_->on_release(e.msg, HoldPhase::kDelivery, t));
    }
  }
  if (observers_ != nullptr) observers_->notify(at, e, t);
}

void ObsSink::hold(ProcessId at, MessageId msg, const HoldReason& reason,
                   bool received, SimTime t, std::uint64_t tiebreak) {
  if (tracelog_ != nullptr) tracelog_->append_hold(at, msg, reason, t, tiebreak);
  if (attribution_ == nullptr) return;
  // Phase is inferred from the message's lifecycle position: once x.r*
  // was recorded the only inhibitable transition left is the delivery.
  const HoldPhase phase = received ? HoldPhase::kDelivery : HoldPhase::kSend;
  publish_closed(attribution_->on_hold(msg, at, phase, reason, t));
}

void ObsSink::note(std::string text, SimTime t) {
  if (tracelog_ != nullptr) tracelog_->append_note(text, t);
  if (recorder_ != nullptr) recorder_->note(std::move(text), t);
}

void ObsSink::add_counts(const EngineCounters& counters) {
  if (instruments_ == nullptr) return;
  instruments_->control_packets->inc(counters.trace.control_packets);
  instruments_->control_bytes->inc(counters.trace.control_bytes);
  instruments_->user_packets->inc(counters.trace.user_packets);
  instruments_->tag_bytes->inc(counters.trace.tag_bytes);
  instruments_->drops->inc(counters.trace.drops);
  instruments_->retransmissions->inc(counters.trace.retransmissions);
  instruments_->duplicate_arrivals->inc(counters.trace.duplicate_arrivals);
  instruments_->timer_fires->inc(counters.timer_fires);
}

void ObsSink::replay(const std::vector<ObsItem>& items,
                     std::size_t n_messages) {
  std::vector<std::uint8_t> received(n_messages, 0);
  for (const ObsItem& item : items) {
    if (item.is_hold) {
      hold(item.at, item.held_msg, item.reason,
           received[item.held_msg] != 0, item.time, item.entry_tiebreak);
    } else {
      if (item.event.kind == EventKind::kReceive) {
        received[item.event.msg] = 1;
      }
      record(item.at, item.event, item.time, item.entry_tiebreak);
    }
  }
}

void ObsSink::update_instruments(SystemEvent e) {
  instruments_->events->inc();
  switch (e.kind) {
    case EventKind::kReceive:
      instruments_->buffered_depth->add(1);
      break;
    case EventKind::kDeliver: {
      instruments_->buffered_depth->add(-1);
      const MessageTimes& mt = trace_->times(e.msg);
      // The full lifecycle exists once x.r is recorded (guard anyway:
      // a misbehaving protocol must not turn metrics into UB).
      if (mt.invoke && mt.send && mt.receive) {
        instruments_->latency->record(mt.latency());
        instruments_->send_delay->record(mt.send_delay());
        instruments_->delivery_delay->record(mt.delivery_delay());
      }
      break;
    }
    default:
      break;
  }
}

void ObsSink::publish_closed(const HoldSegment* seg) {
  if (seg == nullptr) return;
  if (instruments_ != nullptr) {
    instruments_->hold_segments->inc();
    const auto k = static_cast<std::size_t>(seg->reason.kind);
    if (instruments_->hold_time[k] != nullptr) {
      instruments_->hold_time[k]->record(seg->duration());
    }
  }
  if (recorder_ != nullptr) recorder_->on_hold_segment(*seg);
}

}  // namespace msgorder::sim_detail
