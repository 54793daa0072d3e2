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
  profile_ = observability->profile();
  writer_ = observability->record_writer();
  label_ = observability->options().label;
  if (attribution_ != nullptr) received_.assign(n_messages, 0);
}

void ObsSink::open_tracelog(const char* engine, std::size_t shards,
                            std::size_t workers, SimTime lookahead,
                            std::uint64_t seed, std::size_t n_processes) {
  if (writer_ == nullptr) return;
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
  writer_->begin_run(header);
  tracelog_finished_ = false;
}

void ObsSink::finish_tracelog() {
  if (writer_ == nullptr || tracelog_finished_) return;
  tracelog_finished_ = true;
  writer_->finish();
  if (instruments_ != nullptr) {
    instruments_->tracelog_events->inc(writer_->events_written());
    instruments_->tracelog_bytes->inc(writer_->bytes_written());
  }
}

void ObsSink::record(ProcessId at, SystemEvent e, SimTime t,
                     std::uint64_t tiebreak) {
  if (writer_ != nullptr) {
    set_event_record(event_record_, trace_->universe()[e.msg], at, e, t,
                     tiebreak);
    writer_->append(event_record_);
  }
  if (instruments_ != nullptr) update_instruments(e);
  if (attribution_ != nullptr) {
    // The inhibited event executing closes its open hold segment, so
    // per-reason segment times sum exactly to the recorded delay.
    if (e.kind == EventKind::kReceive) {
      received_[e.msg] = 1;
    } else if (e.kind == EventKind::kSend) {
      publish_closed(attribution_->on_release(e.msg, HoldPhase::kSend, t));
    } else if (e.kind == EventKind::kDeliver) {
      publish_closed(attribution_->on_release(e.msg, HoldPhase::kDelivery, t));
    }
  }
  if (observers_ != nullptr) observers_->notify(at, e, t);
}

void ObsSink::hold(ProcessId at, MessageId msg, const HoldReason& reason,
                   SimTime t, std::uint64_t tiebreak) {
  if (writer_ != nullptr) {
    set_hold_record(hold_record_, at, msg, reason, t, tiebreak);
    writer_->append(hold_record_);
  }
  if (attribution_ == nullptr) return;
  const HoldPhase phase =
      received_[msg] != 0 ? HoldPhase::kDelivery : HoldPhase::kSend;
  publish_closed(attribution_->on_hold(msg, at, phase, reason, t));
}

void ObsSink::note(std::string text, SimTime t) {
  if (writer_ != nullptr) writer_->append(note_record(std::move(text), t));
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

void ObsSink::replay(const std::vector<ObsItem>& items) {
  for (const ObsItem& item : items) {
    if (item.is_hold) {
      hold(item.at, item.held_msg, item.reason, item.time,
           item.entry_tiebreak);
    } else {
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
  if (seg == nullptr || instruments_ == nullptr) return;
  instruments_->hold_segments->inc();
  const auto k = static_cast<std::size_t>(seg->reason.kind);
  if (instruments_->hold_time[k] != nullptr) {
    instruments_->hold_time[k]->record(seg->duration());
  }
}

}  // namespace msgorder::sim_detail
