// MetricsRegistry (src/obs/registry.hpp): the named-metrics layer under the
// serving stack's Stats snapshots.
//
// The load-bearing property is shard-merge determinism: Counter and Histogram
// spread bumps over per-thread atomic shards so the query hot path never
// contends on a shared cache line, and every shard field is an
// order-independent reduction (sum, min, max).  A snapshot taken after N adds
// must therefore read the same totals whether the adds came from 1 thread or
// 8 — otherwise two Stats polls of an idle server could disagree, and the
// final --stats-log line could never reconcile with the run artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace volcal::obs {
namespace {

// Deterministic value multiset shared by the 1-thread and 8-thread runs:
// values across many buckets, including the v <= 0 edge bucket.
std::vector<std::int64_t> sample_values() {
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 4096; ++i) {
    values.push_back((i * 2654435761u) % 100000 - 50);
  }
  return values;
}

TEST(Counter, ShardedIncrementsSumExactlyAcrossThreads) {
  const int kThreads = 8;
  const std::int64_t kPerThread = 10000;

  Counter serial;
  for (std::int64_t i = 0; i < kThreads * kPerThread; ++i) serial.inc();

  Counter sharded;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::int64_t i = 0; i < kPerThread; ++i) sharded.inc();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(serial.value(), kThreads * kPerThread);
  EXPECT_EQ(sharded.value(), serial.value());
}

TEST(Counter, DeltaIncrementsAndNegativeDeltasSum) {
  Counter c;
  c.inc(5);
  c.inc(-2);
  c.inc(0);
  EXPECT_EQ(c.value(), 3);
}

TEST(Histogram, BucketOfMatchesBitWidth) {
  EXPECT_EQ(LogHistogram::bucket_of(-100), 0);
  EXPECT_EQ(LogHistogram::bucket_of(0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(1), 1);
  EXPECT_EQ(LogHistogram::bucket_of(2), 2);
  EXPECT_EQ(LogHistogram::bucket_of(3), 2);
  EXPECT_EQ(LogHistogram::bucket_of(4), 3);
  EXPECT_EQ(LogHistogram::bucket_of(1023), 10);
  EXPECT_EQ(LogHistogram::bucket_of(1024), 11);
  EXPECT_EQ(LogHistogram::bucket_of(INT64_MAX), 63);
}

// The ISSUE's determinism pin: the same value multiset added from 1 thread
// and from 8 threads must produce snapshot-equal histograms — buckets,
// count, sum, min, and max all identical.
TEST(Histogram, ShardMergeIsDeterministicOneThreadVsEight) {
  const std::vector<std::int64_t> values = sample_values();

  Histogram one;
  for (const std::int64_t v : values) one.add(v);

  Histogram eight;
  const int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Strided partition: each thread adds a different subset, the union is
      // the full multiset.
      for (std::size_t i = static_cast<std::size_t>(t); i < values.size();
           i += kThreads) {
        eight.add(values[i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  const LogHistogram a = one.snapshot();
  const LogHistogram b = eight.snapshot();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count, static_cast<std::int64_t>(values.size()));

  std::int64_t expected_sum = 0, expected_min = INT64_MAX, expected_max = INT64_MIN;
  for (const std::int64_t v : values) {
    expected_sum += v;
    expected_min = std::min(expected_min, v);
    expected_max = std::max(expected_max, v);
  }
  EXPECT_EQ(a.sum, expected_sum);
  EXPECT_EQ(a.min, expected_min);
  EXPECT_EQ(a.max, expected_max);
}

TEST(Histogram, EmptySnapshotIsZeroed) {
  Histogram h;
  const LogHistogram s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  for (const std::int64_t b : s.buckets) EXPECT_EQ(b, 0);
}

TEST(Histogram, ApproxQuantileResolvesToUpperBucketBounds) {
  Histogram h;
  // 90 values in bucket 1 (value 1), 10 in bucket 7 (64..127 -> here 100).
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(100);
  const LogHistogram s = h.snapshot();
  // p50 lands in bucket 1, whose upper bound is (1<<1)-1 = 1 (exact here).
  EXPECT_EQ(s.approx_quantile(0.50), 1);
  // p99 lands in bucket 7: upper bound (1<<7)-1 = 127, a <= 2x overestimate.
  EXPECT_EQ(s.approx_quantile(0.99), 127);
  // Quantiles of an empty histogram are 0, not UB.
  EXPECT_EQ(LogHistogram{}.approx_quantile(0.99), 0);
}

// Non-negative values across the whole int64 range: 0, 1, every power of
// two and its neighbours, values next to INT64_MAX, and a seeded spread of
// magnitudes.
std::vector<std::int64_t> wide_values() {
  std::vector<std::int64_t> values = {0, 1, INT64_MAX, INT64_MAX - 1, INT64_MAX - 4096};
  for (int k = 1; k < 63; ++k) {
    const std::int64_t p = std::int64_t{1} << k;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 20000; ++i) {
    const auto shift = static_cast<int>(1 + rng() % 63);
    values.push_back(static_cast<std::int64_t>(rng() >> shift));
  }
  return values;
}

// The exact nearest-rank quantile of `sorted`, as approx_quantile ranks it.
std::int64_t nearest_rank(const std::vector<std::int64_t>& sorted, double q) {
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

TEST(Histogram, SubBucketBoundsHoldEveryValueWithinOneSixtyFourth) {
  using H = BasicLogHistogram<6>;
  EXPECT_EQ(H::kBuckets, 3712u);
  EXPECT_EQ(H::bucket_of(INT64_MAX), static_cast<int>(H::kBuckets) - 1);
  EXPECT_EQ(H::bucket_upper(static_cast<int>(H::kBuckets) - 1), INT64_MAX);
  for (std::int64_t v = 0; v < 64; ++v) EXPECT_EQ(H::bucket_upper(H::bucket_of(v)), v);
  for (const std::int64_t v : wide_values()) {
    const int b = H::bucket_of(v);
    const std::int64_t upper = H::bucket_upper(b);
    EXPECT_LE(v, upper) << v;
    EXPECT_LE(upper - v, v / 64) << v;
    if (v > 0) {
      EXPECT_LT(H::bucket_upper(b - 1), v) << v;
    }
  }
}

TEST(Histogram, SubBucketedQuantilesStayWithinTheStatedBound) {
  std::vector<std::int64_t> values = wide_values();
  BasicLogHistogram<6> h;
  for (const std::int64_t v : values) h.add(v);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count, static_cast<std::int64_t>(values.size()));
  EXPECT_EQ(h.min, values.front());
  EXPECT_EQ(h.max, values.back());
  for (int pct = 1; pct <= 100; ++pct) {
    const double q = pct / 100.0;
    const std::int64_t exact = nearest_rank(values, q);
    const std::int64_t approx = std::clamp(h.approx_quantile(q), h.min, h.max);
    EXPECT_GE(approx, exact) << "q " << q;
    EXPECT_LE(approx - exact, exact / 64) << "q " << q;
  }
}

// The 0-sub-bit layout is the power-of-two one: bucket = bit_width, and a
// quantile is the upper bound 2^b - 1 of the exact nearest-rank value's
// bucket (unclamped).
TEST(Histogram, ZeroSubBitLayoutIsPowerOfTwo) {
  std::vector<std::int64_t> values = wide_values();
  const std::vector<std::int64_t> mixed = sample_values();  // includes v < 0
  values.insert(values.end(), mixed.begin(), mixed.end());
  LogHistogram h;
  for (const std::int64_t v : values) {
    EXPECT_EQ(LogHistogram::bucket_of(v),
              v <= 0 ? 0 : std::bit_width(static_cast<std::uint64_t>(v)));
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    const std::int64_t exact = nearest_rank(values, q);
    const int b = LogHistogram::bucket_of(exact);
    const std::int64_t expected =
        b == 0 ? 0 : static_cast<std::int64_t>((std::uint64_t{1} << b) - 1);
    EXPECT_EQ(h.approx_quantile(q), expected) << "q " << q;
  }
}

template <typename H>
void expect_merge_equals_adding_every_sample(const std::vector<std::int64_t>& values) {
  H whole;
  for (const std::int64_t v : values) whole.add(v);
  H parts[3];
  for (std::size_t i = 0; i < values.size(); ++i) parts[i % 3].add(values[i]);
  H merged;
  merged.merge(H{});
  for (const H& part : parts) merged.merge(part);
  merged.merge(H{});
  EXPECT_EQ(merged, whole);
}

TEST(Histogram, MergeEqualsAddingEverySample) {
  std::vector<std::int64_t> values = wide_values();
  const std::vector<std::int64_t> mixed = sample_values();
  values.insert(values.end(), mixed.begin(), mixed.end());
  expect_merge_equals_adding_every_sample<LogHistogram>(values);
  expect_merge_equals_adding_every_sample<BasicLogHistogram<6>>(values);
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("serve.accepted");
  Counter* c2 = reg.counter("serve.accepted");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.gauge("serve.depth");
  Gauge* g2 = reg.gauge("serve.depth");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.histogram("serve.latency_us");
  Histogram* h2 = reg.histogram("serve.latency_us");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistry, SnapshotIteratesInNameOrderAndRendersDeterministicJson) {
  MetricsRegistry reg;
  // Register out of order; snapshots must come back sorted by name.
  reg.counter("zeta")->inc(3);
  reg.counter("alpha")->inc(1);
  reg.gauge("mid")->set(7);
  reg.histogram("hist")->add(5);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zeta");
  EXPECT_EQ(snap.counter("alpha"), 1);
  EXPECT_EQ(snap.counter("zeta"), 3);
  EXPECT_EQ(snap.counter("missing", -1), -1);
  EXPECT_EQ(snap.gauge("mid"), 7);

  // Two snapshots of unchanged state render byte-identical JSON.
  EXPECT_EQ(reg.snapshot().to_json(), snap.to_json());
  // And the JSON carries the expected shape markers.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
}

TEST(MetricsRegistry, GaugeFnIsEvaluatedAtSnapshotTimeAndWinsOverOwnedGauge) {
  MetricsRegistry reg;
  std::int64_t live = 10;
  reg.gauge_fn("depth", [&] { return live; });
  EXPECT_EQ(reg.snapshot().gauge("depth"), 10);
  live = 42;  // no re-registration — the callback reads the live value
  EXPECT_EQ(reg.snapshot().gauge("depth"), 42);

  // A callback registered under an owned gauge's name shadows it (the
  // transport re-points serve.connections at stop() this way).
  reg.gauge("shadow")->set(1);
  reg.gauge_fn("shadow", [] { return std::int64_t{99}; });
  EXPECT_EQ(reg.snapshot().gauge("shadow"), 99);
  // Re-registering replaces the callback.
  reg.gauge_fn("shadow", [] { return std::int64_t{0}; });
  EXPECT_EQ(reg.snapshot().gauge("shadow"), 0);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndBumpingIsSafe) {
  MetricsRegistry reg;
  const int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Every thread registers the same names and bumps through the handle it
      // got back — idempotent registration must hand all of them the same
      // metric.
      Counter* c = reg.counter("shared.counter");
      Histogram* h = reg.histogram("shared.hist");
      for (int i = 0; i < 1000; ++i) {
        c->inc();
        h->add(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("shared.counter"), kThreads * 1000);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, kThreads * 1000);
  EXPECT_EQ(snap.histograms[0].second.min, 0);
  EXPECT_EQ(snap.histograms[0].second.max, 999);
}

TEST(MetricsRegistry, GlobalIsAProcessWideSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
  // The sweep engine folds here (sweep.runs etc.); registering a test-local
  // name must not disturb anything.
  Counter* c = MetricsRegistry::global().counter("test.obs_registry.probe");
  c->inc();
  EXPECT_GE(MetricsRegistry::global().snapshot().counter("test.obs_registry.probe"),
            1);
}

}  // namespace
}  // namespace volcal::obs
