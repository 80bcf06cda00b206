// MetricsRegistry — lock-cheap named metrics for long-running processes.
//
// SweepMetrics (obs/metrics.hpp) aggregates *after* a sweep finishes; the
// serving regime needs counters that are cheap enough to bump on the query
// hot path and readable at any moment from another thread.  This header
// provides the three primitives and the registry that names them:
//
//   Counter    monotone int64, per-thread atomic shards summed on read — a
//              bump is one relaxed fetch_add on a shard the incrementing
//              thread (almost always) owns alone, so worker threads never
//              contend on a shared cache line.
//   Gauge      single atomic level (set/add) — queue depths, connection
//              counts; also registrable as a callback (gauge_fn) evaluated
//              at snapshot time for values owned elsewhere.
//   Histogram  a LogHistogram (below) sharded like Counter and merged on
//              read into a plain LogHistogram.
//
// Shard-merge determinism: every shard field is an order-independent
// reduction (sum, min, max), so a snapshot taken after N adds reads the
// same totals whether the adds came from 1 thread or 8 — asserted by
// tests/obs_registry_test.cpp.
//
// Snapshots are deterministic: metrics iterate in name order (std::map), so
// two snapshots of the same state render byte-identical JSON.  Registration
// (counter()/gauge()/histogram()) takes the registry mutex and is idempotent
// by name — callers register once and keep the stable handle; handles live
// as long as the registry.  The process-wide instance is global(); contexts
// needing isolated counters (one QueryService per test) own their own
// MetricsRegistry instead.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace volcal::obs {

namespace detail {

// Stable small index for the calling thread, handed out round-robin so the
// first kShards threads get exclusive shards and later ones wrap.
unsigned thread_shard_slot();

inline constexpr std::size_t kMetricShards = 16;

// Relaxed CAS min/max — shard collisions are rare (two threads sharing a
// slot), so the loop almost never retries.
inline void atomic_min(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

class Counter {
 public:
  Counter() : slots_(std::make_unique<Slot[]>(detail::kMetricShards)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::int64_t delta = 1) {
    slots_[detail::thread_shard_slot() % detail::kMetricShards].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    std::int64_t total = 0;
    for (std::size_t s = 0; s < detail::kMetricShards; ++s) {
      total += slots_[s].v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  std::unique_ptr<Slot[]> slots_;
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Log-linear bucket histogram, the one histogram value type: SweepMetrics
// (obs/metrics.hpp) accumulates LogHistogram directly, Histogram::snapshot()
// returns one, and QueryService keeps a sub-bucketed instance for its
// since-start latencies.  Fixed bucket array — covers the full int64 range,
// trivially mergeable, constant memory however many values it has seen.
//
// SubBits = s splits each power-of-two range [2^k, 2^(k+1)) with k >= s into
// 2^s equal sub-buckets; values below 2^s get one bucket each (v <= 0 shares
// bucket 0).  A bucket's width is at most 1/2^s of its lower bound, so its
// upper bound overestimates any value in it by less than a factor 1 + 2^-s.
// (64 - s) * 2^s buckets: 64 for s = 0, 3712 (29 KiB) for s = 6.
//
// s = 0 is the power-of-two layout: bucket b counts values v with
// bit_width(v) == b, i.e. bucket 0 holds v <= 0, bucket 1 holds v=1, bucket 2
// holds 2-3, bucket 3 holds 4-7, ...
template <int SubBits>
struct BasicLogHistogram {
  static_assert(SubBits >= 0 && SubBits <= 8, "sub-bucket count out of range");
  static constexpr std::int64_t kSub = std::int64_t{1} << SubBits;
  static constexpr std::size_t kBuckets = std::size_t{64 - SubBits} << SubBits;

  std::array<std::int64_t, kBuckets> buckets{};
  std::int64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t sum = 0;

  static int bucket_of(std::int64_t v) {
    if (v < kSub) return v <= 0 ? 0 : static_cast<int>(v);
    const auto u = static_cast<std::uint64_t>(v);
    const int shift = std::bit_width(u) - 1 - SubBits;
    return ((shift + 1) << SubBits) + static_cast<int>((u >> shift) - kSub);
  }

  // Largest value bucket b holds.
  static std::int64_t bucket_upper(int b) {
    if (b < kSub) return b;
    const int shift = (b >> SubBits) - 1;
    const std::uint64_t lower = static_cast<std::uint64_t>(kSub + (b & (kSub - 1)))
                                << shift;
    return static_cast<std::int64_t>(lower + ((std::uint64_t{1} << shift) - 1));
  }

  void add(std::int64_t v) {
    ++buckets[static_cast<std::size_t>(bucket_of(v))];
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    ++count;
    sum = wrapping_add(sum, v);
  }

  void merge(const BasicLogHistogram& other) {
    if (other.count == 0) return;
    for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
    if (count == 0) {
      min = other.min;
      max = other.max;
    } else {
      min = std::min(min, other.min);
      max = std::max(max, other.max);
    }
    count += other.count;
    sum = wrapping_add(sum, other.sum);
  }

  // Nearest-rank quantile resolved to the upper bound of the holding bucket:
  // exact below 2^s, else an overestimate by less than a factor 1 + 2^-s
  // (up to 2x at s = 0).  Not clamped to max — callers that report it as a
  // latency clamp to [min, max] themselves.
  std::int64_t approx_quantile(double q) const {
    if (count <= 0) return 0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    // Nearest-rank: the smallest rank covering fraction q of the samples.
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(clamped * static_cast<double>(count))));
    std::int64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      cum += buckets[b];
      if (cum >= rank) return bucket_upper(static_cast<int>(b));
    }
    return max;
  }

  friend bool operator==(const BasicLogHistogram&, const BasicLogHistogram&) = default;

 private:
  // The sum wraps on overflow, as the sharded Histogram's atomic fetch_add
  // does, instead of being undefined.
  static std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
  }
};

using LogHistogram = BasicLogHistogram<0>;

class Histogram {
 public:
  Histogram() : slots_(std::make_unique<Slot[]>(detail::kMetricShards)) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void add(std::int64_t v) {
    Slot& slot = slots_[detail::thread_shard_slot() % detail::kMetricShards];
    slot.buckets[static_cast<std::size_t>(LogHistogram::bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.sum.fetch_add(v, std::memory_order_relaxed);
    detail::atomic_min(slot.min, v);
    detail::atomic_max(slot.max, v);
  }

  LogHistogram snapshot() const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::int64_t>, LogHistogram::kBuckets> buckets{};
    std::atomic<std::int64_t> count{0};
    std::atomic<std::int64_t> sum{0};
    std::atomic<std::int64_t> min{INT64_MAX};
    std::atomic<std::int64_t> max{INT64_MIN};
  };
  std::unique_ptr<Slot[]> slots_;
};

// One deterministic read of a whole registry (metrics in name order, gauge
// callbacks evaluated at snapshot time).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, LogHistogram>> histograms;

  std::int64_t counter(const std::string& name, std::int64_t fallback = 0) const;
  std::int64_t gauge(const std::string& name, std::int64_t fallback = 0) const;

  // {"counters": {...}, "gauges": {...}, "histograms": {"name": {"count",
  // "min", "max", "sum", "buckets": {"<bucket>": n, ...}}, ...}} — bucket
  // keys are bucket indices, matching the SweepMetrics JSON convention.
  std::string to_json() const;
  void append_json(std::string& out) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent by name: the first call creates, later calls return the same
  // handle.  Handles stay valid for the registry's lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Callback gauge for a value owned elsewhere (queue depth, connection
  // count); evaluated under the registry mutex at snapshot time, so keep it
  // O(1) and never have it call back into this registry.  Re-registering a
  // name replaces the callback.
  void gauge_fn(const std::string& name, std::function<std::int64_t()> fn);

  MetricsSnapshot snapshot() const;

  // The process-wide registry (sweep-engine adoption folds here).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<std::int64_t()>> gauge_fns_;
};

}  // namespace volcal::obs
