// Tests for the observability metrics layer (ISSUE 2): counters,
// gauges, fixed-bucket histograms with percentile queries, the registry,
// and the JSON writer/validator the reports are built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/json.hpp"
#include "src/obs/json_value.hpp"
#include "src/obs/metrics.hpp"

namespace msgorder {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWatermark) {
  Gauge g;
  g.add(3);
  g.add(4);
  g.add(-5);
  EXPECT_DOUBLE_EQ(g.value(), 2);
  EXPECT_DOUBLE_EQ(g.max(), 7);
  g.set(100);
  EXPECT_DOUBLE_EQ(g.max(), 100);
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.max(), 0);
}

// ISSUE 4 regression: an empty histogram has no percentiles — the old
// interface reported 0, indistinguishable from a real 0-valued
// distribution, which poisoned report percentile columns.
TEST(Histogram, EmptyHistogramHasNoPercentiles) {
  Histogram h;
  EXPECT_FALSE(h.percentile(50).has_value());
  EXPECT_FALSE(h.percentile(100).has_value());
  h.record(3.0);
  ASSERT_TRUE(h.percentile(50).has_value());
  EXPECT_DOUBLE_EQ(h.percentile(100).value(), 3.0);
}

// Empty histograms serialize with null percentiles, and the output is
// still valid JSON.
TEST(Histogram, EmptyHistogramSerializesNullPercentiles) {
  JsonWriter w;
  Histogram h;
  write_histogram_json(w, h);
  EXPECT_NE(w.str().find("\"p50\":null"), std::string::npos) << w.str();
  std::string error;
  EXPECT_TRUE(json_parse(w.str(), &error).has_value()) << error;
}

TEST(Histogram, ExactStatsAreExact) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 10.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 16);
  EXPECT_DOUBLE_EQ(h.mean(), 4);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 10);
}

TEST(Histogram, LinearPercentilesAreMonotoneAndBounded) {
  HistogramOptions opts;
  opts.scale = HistogramOptions::Scale::kLinear;
  opts.width = 1.0;
  opts.buckets = 128;
  Histogram h(opts);
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  double prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.percentile(p).value();
    EXPECT_GE(v, prev) << "p" << p;
    // A unit-wide bucket pins each percentile to within one bucket.
    EXPECT_NEAR(v, p, 1.5) << "p" << p;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.percentile(100).value(), 100);
}

TEST(Histogram, Exp2PercentilesCoverWideRanges) {
  Histogram h;  // default exp2 x 64 buckets
  for (int i = 0; i < 1000; ++i) h.record(0.5);
  h.record(10000.0);
  EXPECT_LE(h.percentile(50).value(), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100).value(), 10000.0);
  // The single large value sits in the tail, not in the median.
  EXPECT_LT(h.percentile(90).value(), 2.0);
}

TEST(Histogram, Exp2BucketEdgesAreUpperInclusive) {
  // Bucket i covers (width * 2^(i-1), width * 2^i]: an exact power of
  // two closes its bucket, the next double above opens the next one.
  HistogramOptions opts;
  opts.width = 0.5;
  opts.buckets = 8;
  const auto bucket_of = [&opts](double v) {
    Histogram h(opts);
    h.record(v);
    const auto& counts = h.bucket_counts();
    return static_cast<std::size_t>(
        std::find(counts.begin(), counts.end(), 1u) - counts.begin());
  };
  EXPECT_EQ(bucket_of(0.0), 0u);
  EXPECT_EQ(bucket_of(0.5), 0u);
  EXPECT_EQ(bucket_of(std::nextafter(0.5, 1.0)), 1u);
  EXPECT_EQ(bucket_of(1.0), 1u);
  EXPECT_EQ(bucket_of(std::nextafter(1.0, 2.0)), 2u);
  EXPECT_EQ(bucket_of(48.0), 7u);  // q = 96 in (64, 128]
  EXPECT_EQ(bucket_of(64.0), 7u);  // q = 128
  EXPECT_EQ(bucket_of(std::nextafter(64.0, 65.0)), 8u);  // overflow
  EXPECT_EQ(bucket_of(std::numeric_limits<double>::infinity()), 8u);
}

TEST(Histogram, OverflowBucketReportsObservedMax) {
  HistogramOptions opts;
  opts.scale = HistogramOptions::Scale::kLinear;
  opts.width = 1.0;
  opts.buckets = 4;
  Histogram h(opts);
  for (int i = 0; i < 10; ++i) h.record(1e6);
  EXPECT_DOUBLE_EQ(h.percentile(50).value(), 1e6);
}

TEST(MetricsRegistry, SameNameSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.drops");
  Counter& b = reg.counter("net.drops");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.find_counter("net.drops"), &a);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
}

TEST(MetricsRegistry, ReferencesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  Counter& first = reg.counter("a");
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i));
  }
  first.inc(7);
  EXPECT_EQ(reg.find_counter("a")->value(), 7u);
}

TEST(MetricsRegistry, ToJsonIsValidAndCarriesInstruments) {
  MetricsRegistry reg;
  reg.counter("sim.events").inc(5);
  reg.gauge("depth").set(3);
  reg.histogram("lat").record(2.0);
  const std::string json = reg.to_json();
  std::string error;
  EXPECT_TRUE(json_parse(json, &error).has_value()) << error << "\n" << json;
  EXPECT_NE(json.find("\"sim.events\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("msgorder.metrics/1"), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.kv("k", "a\"b\\c\nd");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
  std::string error;
  EXPECT_TRUE(json_parse(w.str(), &error).has_value()) << error;
}

TEST(JsonWriter, NestedContainersGetCommasRight) {
  JsonWriter w;
  w.begin_object();
  w.key("a").begin_array().value(1).value(2).end_array();
  w.kv("b", true);
  w.key("c").begin_object().kv("x", 1.5).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[1,2],\"b\":true,\"c\":{\"x\":1.5}}");
}

// The one JSON grammar (json_parse) on the inputs the removed second
// grammar (json_validate) was tested with: same verdicts.
TEST(JsonParse, AcceptsAndRejects) {
  EXPECT_TRUE(
      json_parse("{\"a\": [1, 2.5, -3e2, null, true, \"x\"]}").has_value());
  EXPECT_TRUE(json_parse("  42  ").has_value());
  EXPECT_TRUE(json_parse("[0, -0, 0.5, 10]").has_value());
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\":}", &error).has_value());
  EXPECT_FALSE(json_parse("[1, 2", &error).has_value());
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(json_parse("{'a':1}", &error).has_value());
  EXPECT_FALSE(json_parse("", &error).has_value());
  // RFC 8259 numbers have no leading zeros.
  EXPECT_FALSE(json_parse("01", &error).has_value());
  EXPECT_FALSE(json_parse("[-007]", &error).has_value());
}

// Hostile nesting fails with an error instead of overflowing the stack:
// every value counts one level, 256 levels parse.
TEST(JsonParse, NestingIsBoundedAt256) {
  const auto nested = [](std::size_t depth, const std::string& inner) {
    return std::string(depth, '[') + inner + std::string(depth, ']');
  };
  std::string error;
  EXPECT_TRUE(json_parse(nested(256, ""), &error).has_value()) << error;
  EXPECT_TRUE(json_parse(nested(255, "1"), &error).has_value()) << error;
  EXPECT_FALSE(json_parse(nested(256, "1"), &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  EXPECT_FALSE(json_parse(nested(257, ""), &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  std::string objects;
  for (int i = 0; i < 300; ++i) objects += "{\"k\":";
  objects += "0" + std::string(300, '}');
  EXPECT_FALSE(json_parse(objects, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  // Four million levels: far past any stack, still a clean error.
  EXPECT_FALSE(json_parse(nested(4'000'000, ""), &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

}  // namespace
}  // namespace msgorder
