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

#include <array>
#include <atomic>
#include <bit>
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

// Power-of-two bucket histogram, the one histogram value type: SweepMetrics
// (obs/metrics.hpp) accumulates these directly, and Histogram::snapshot()
// returns one.  Bucket b counts values v with bit_width(v) == b, i.e. bucket
// 0 holds v <= 0, bucket 1 holds v=1, bucket 2 holds 2-3, bucket 3 holds
// 4-7, ...  Fixed 64 buckets — covers the full int64 range, trivially
// mergeable.
struct LogHistogram {
  std::array<std::int64_t, 64> buckets{};
  std::int64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t sum = 0;

  static int bucket_of(std::int64_t v) {
    return v <= 0 ? 0 : std::bit_width(static_cast<std::uint64_t>(v));
  }

  void add(std::int64_t v);
  void merge(const LogHistogram& other);

  // Nearest-rank quantile resolved to the upper bound of the holding bucket
  // (exact for bucket 0/1, a <= 2x overestimate above) — good enough for a
  // dashboard; exact percentiles come from sample vectors where they matter.
  std::int64_t approx_quantile(double q) const;

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;
};

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
    std::array<std::atomic<std::int64_t>, 64> buckets{};
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
