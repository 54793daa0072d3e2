#include "perfbench/src/tracing.hpp"

#include <utility>

#include "src/obs/json.hpp"

namespace perfbench {

using msgorder::Host;
using msgorder::HoldReason;
using msgorder::Message;
using msgorder::MessageId;
using msgorder::Packet;
using msgorder::ProcessId;
using msgorder::Protocol;
using msgorder::SimTime;

int Tracer::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start = seconds_between(origin_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.pass = pass_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[id].end = seconds_between(origin_, Clock::now());
  open_.pop_back();  // ScopedSpan closes spans in LIFO order
}

void Tracer::aggregate(std::string name, double seconds, std::uint64_t calls) {
  aggregates_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                         seconds, calls});
}

bool Tracer::write_json(const std::string& path, std::string* error) const {
  msgorder::JsonWriter w;
  w.begin_object();
  w.kv("schema", "perfbench.spans/1");
  w.key("spans").begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("start", s.start);
    w.kv("end", s.end);
    w.kv("parent", s.parent);
    w.kv("pass", s.pass);
    w.end_object();
  }
  w.end_array();
  w.key("aggregates").begin_array();
  for (const Aggregate& a : aggregates_) {
    w.begin_object();
    w.kv("name", a.name);
    w.kv("parent", a.parent);
    w.kv("seconds", a.seconds);
    w.kv("calls", a.calls);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return msgorder::write_text_file(path, w.str() + "\n", error);
}

namespace {

/// Adds the wall time of one call to `seconds`.
class CallTimer {
 public:
  explicit CallTimer(double& seconds)
      : seconds_(seconds), start_(Clock::now()) {}
  ~CallTimer() { seconds_ += seconds_between(start_, Clock::now()); }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  double& seconds_;
  Clock::time_point start_;
};

class HostProxy final : public Host {
 public:
  HostProxy(Host& host, HookTotals& totals) : host_(host), totals_(totals) {}

  void send_packet(Packet packet) override {
    CallTimer t(totals_.host_s);
    host_.send_packet(std::move(packet));
  }
  void deliver(MessageId msg) override {
    CallTimer t(totals_.host_s);
    host_.deliver(msg);
  }
  void set_timer(SimTime delay, std::uint64_t cookie) override {
    CallTimer t(totals_.host_s);
    host_.set_timer(delay, cookie);
  }
  void hold(MessageId msg, const HoldReason& reason) override {
    CallTimer t(totals_.host_s);
    host_.hold(msg, reason);
  }
  bool wants_hold_reasons() const override {
    return host_.wants_hold_reasons();
  }
  SimTime now() const override { return host_.now(); }
  ProcessId self() const override { return host_.self(); }
  std::size_t process_count() const override {
    return host_.process_count();
  }
  const Message& message(MessageId msg) const override {
    return host_.message(msg);
  }

 private:
  Host& host_;
  HookTotals& totals_;
};

class ProtocolProxy final : public Protocol {
 public:
  ProtocolProxy(Host& host, HookTotals& totals,
                const msgorder::ProtocolFactory& inner)
      : totals_(totals), host_(host, totals), inner_(inner(host_)) {}

  void on_invoke(const Message& m) override {
    ++totals_.hooks;
    CallTimer t(totals_.hook_s);
    inner_->on_invoke(m);
  }
  void on_packet(const Packet& packet) override {
    ++totals_.hooks;
    CallTimer t(totals_.hook_s);
    inner_->on_packet(packet);
  }
  void on_timer(std::uint64_t cookie) override {
    ++totals_.hooks;
    CallTimer t(totals_.hook_s);
    inner_->on_timer(cookie);
  }
  std::string name() const override { return inner_->name(); }
  bool snapshot(std::string& out) const override {
    return inner_->snapshot(out);
  }
  bool quiescent() const override { return inner_->quiescent(); }

 private:
  HookTotals& totals_;
  // Declared before inner_: the wrapped instance holds a reference to it.
  HostProxy host_;
  std::unique_ptr<Protocol> inner_;
};

}  // namespace

msgorder::ProtocolFactory TimedStack::factory() {
  return [this](Host& host) -> std::unique_ptr<Protocol> {
    return std::make_unique<ProtocolProxy>(host, register_instance(), inner_);
  };
}

HookTotals& TimedStack::register_instance() {
  std::lock_guard<std::mutex> lock(mu_);
  instances_.push_back(std::make_unique<HookTotals>());
  return *instances_.back();
}

HookTotals TimedStack::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  HookTotals sum;
  for (const auto& t : instances_) {
    sum.hook_s += t->hook_s;
    sum.host_s += t->host_s;
    sum.hooks += t->hooks;
  }
  return sum;
}

msgorder::SimObserver timed_observer(msgorder::SimObserver inner,
                                     ObserverTotals* totals) {
  return [inner = std::move(inner), totals](ProcessId p,
                                            msgorder::SystemEvent e,
                                            SimTime t) {
    ++totals->events;
    CallTimer timer(totals->seconds);
    inner(p, e, t);
  };
}

}  // namespace perfbench
