#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "src/obs/json.hpp"

namespace msgorder {

Histogram::Histogram(HistogramOptions options) : options_(options) {
  assert(options_.width > 0);
  if (options_.buckets == 0) options_.buckets = 1;
  counts_.assign(options_.buckets + 1, 0);  // +1 overflow
}

double Histogram::bucket_upper(std::size_t i) const {
  assert(i < options_.buckets);
  if (options_.scale == HistogramOptions::Scale::kLinear) {
    return options_.width * static_cast<double>(i + 1);
  }
  return options_.width * std::ldexp(1.0, static_cast<int>(i));
}

std::size_t Histogram::bucket_index(double v) const {
  if (v <= options_.width) return 0;
  if (options_.scale == HistogramOptions::Scale::kLinear) {
    const double idx = std::ceil(v / options_.width) - 1;
    if (idx >= static_cast<double>(options_.buckets)) return options_.buckets;
    return static_cast<std::size_t>(idx);
  }
  // Bucket ceil(log2(q)) for q > 1, read off the double's bits instead
  // of calling log2: the unbiased exponent is floor(log2(q)), plus one
  // unless q is an exact power of two (zero mantissa).  Infinity and NaN
  // carry the maximal exponent and land in the overflow bucket.
  const auto bits = std::bit_cast<std::uint64_t>(v / options_.width);
  const auto exponent = static_cast<std::size_t>(bits >> 52) - 1023;
  const bool power_of_two = (bits & ((std::uint64_t{1} << 52) - 1)) == 0;
  return std::min(exponent + (power_of_two ? 0 : 1), options_.buckets);
}

void Histogram::record(double v) {
  if (v < 0) v = 0;  // delays are nonnegative by construction
  ++counts_[bucket_index(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

std::optional<double> Histogram::percentile(double p) const {
  if (count_ == 0) return std::nullopt;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t before = seen;
    seen += counts_[i];
    if (static_cast<double>(seen) < rank) continue;
    if (i == options_.buckets) return max_;  // overflow bucket
    const double hi = std::min(bucket_upper(i), max_);
    double lo = (i == 0) ? std::min(min_, hi)
                         : (options_.scale == HistogramOptions::Scale::kLinear
                                ? bucket_upper(i) - options_.width
                                : bucket_upper(i) / 2);
    lo = std::max(lo, min_);
    if (lo > hi) lo = hi;
    const double frac =
        counts_[i] == 0
            ? 0
            : (rank - static_cast<double>(before)) /
                  static_cast<double>(counts_[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max_;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      HistogramOptions options) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(options)).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).begin_object();
    w.kv("value", g.value());
    w.kv("max", g.max());
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    write_histogram_json(w, h);
  }
  w.end_object();
}

void write_histogram_json(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("mean", h.mean());
  w.kv("min", h.min());
  w.kv("max", h.max());
  const auto pct = [&](const char* key, double p) {
    const std::optional<double> v = h.percentile(p);
    if (v.has_value()) {
      w.kv(key, *v);
    } else {
      w.key(key).null();
    }
  };
  pct("p50", 50);
  pct("p90", 90);
  pct("p99", 99);
  w.end_object();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "msgorder.metrics/1");
  write_json(w);
  w.end_object();
  return w.take();
}

}  // namespace msgorder
