// QueryService — the long-running concurrent query core behind volcal_serve.
//
// The offline engine (ParallelRunner) answers "label every node" sweeps; the
// service answers the online form of the same question: per-node label
// queries arriving one at a time, from many clients, against a loaded
// instance (typically a .vsnap mapping).  It owns the only view cache: a
// sweep's starts are distinct, a query stream's repeat.  Three properties carry over from
// the sweep engine, by construction:
//
//   * Bit-identical answers.  The batched path runs one cached ball wave
//     per popped batch (run_cached_ball_wave: cache full hits via
//     serve_costs, misses fused into one BatchedBallExecutor run, completed
//     expansions stored back at the captured epoch) — the same per-start
//     meters as ParallelRunner's batched sweeps, which fuse every start; the
//     basic path runs the family's solve() on a plain Execution.  Either way a served label
//     equals the offline run_at_all_nodes output for that node — volcal_load
//     --verify asserts this end to end.
//
//   * Exact cost meters.  Each result carries the volume / distance /
//     query-count the paper's Definitions 2.1-2.2 assign to that start,
//     cache or no cache.
//
//   * Safe hot swap.  swap_target() atomically replaces the served instance;
//     in-flight batches finish against the target they snapshotted (the
//     shared_ptr keeps the old mapping alive until the last batch drops it),
//     new batches bind the cache to the new view.  Because cache identity is
//     the storage *token* (graph_view.hpp) — never an address — a new
//     snapshot mmap'ed at a recycled address cannot be served stale balls
//     (the pointer-ABA case this PR's regression tests pin).
//
// Admission control: a bounded FIFO queue.  submit() returns Shed when the
// queue is full (the caller answers with retry_after_ms) and Stopped once
// draining — accepted requests are never dropped.  drain_and_stop() stops
// admission, waits for the queue and all in-flight batches to finish (every
// accepted callback has run by return), then joins the workers.
//
// Threading: `threads` workers pop up to `batch_max` requests at a time;
// completion callbacks run on worker threads and must be fast and
// thread-safe (the socket layer serializes per-connection writes).  Latency
// is measured enqueue -> callback-dispatch per request.  The windowed
// summary is stats::summarize over exact samples (nearest-rank p95/p99, same
// definition everywhere in this repo); the since-start summary reads a
// fixed-size histogram (see latency_summary()).
//
// Latency bookkeeping takes constant memory however many requests the
// service has answered: the since-start histogram (LatencyHistogram, 3712
// buckets, 29 KiB) plus the window ring of at most 2^16 samples of 16 B
// (1 MiB).
//
// Observability: every counter lives in the service's obs::MetricsRegistry
// (per-thread sharded atomics — the query path bumps them without taking a
// lock), readable at any moment via metrics() or as one JSON snapshot via
// stats_json(): uptime, queue depth, in-flight, admission counters,
// since-start latency percentiles (histogram, within 1/64 relative error),
// exact windowed percentiles over the last stats_window_seconds, cache
// counters, wave/batch occupancy, and the per-family volume histograms
// ("serve.volume.<family>").  The transport answers the protocol's Stats
// frame with exactly this snapshot.  Optional per-request spans
// (ServeConfig::tracer) and a bounded slow-query log (slow_threshold_ns)
// attribute tail latency to specific requests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "lcl/registry.hpp"
#include "obs/registry.hpp"
#include "plan/probe_plan.hpp"
#include "runtime/view_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/trace.hpp"
#include "stats/growth.hpp"

namespace volcal::serve {

// What the service answers queries against: a loaded instance plus the
// family's probe plan (the registry's plan for the instance's family —
// batchable plans take the fused multi-start path).  The shared_ptr is the
// hot-swap unit: workers snapshot it per batch, so an old target's mapping
// stays alive exactly until the last batch against it completes.
struct ServeTarget {
  std::shared_ptr<const ErasedInstance> instance;
  ProbePlan plan = ProbePlan::independent();
};

// Builds a ServeTarget from an instance by looking the family's plan up in
// the global registry (IndependentStarts when the family is unknown).
ServeTarget make_serve_target(std::shared_ptr<const ErasedInstance> instance);

struct ServeConfig {
  // Worker threads; 0 resolves like the sweep engine (VOLCAL_THREADS, else 1).
  int threads = 0;
  // Bounded admission queue; submits beyond this are shed.
  std::size_t queue_capacity = 1024;
  // Requests a worker pops per wave, clamped to [1, BatchedBallExecutor::
  // kMaxBatch] (the visited-mask width of the fused backend).
  int batch_max = 64;
  // Advisory retry hint attached to shed responses.
  std::uint32_t retry_after_ms = 50;
  // Cross-request ball cache behind a batchable target's waves (policy
  // Shared to enable; Off serves uncached).
  CacheConfig cache;
  // Sliding window for the windowed percentiles in stats_json().
  double stats_window_seconds = 10.0;
  // Slow-query log: completed requests with latency_ns >= slow_threshold_ns
  // are kept (newest slow_log_capacity of them); < 0 disables the log.
  std::int64_t slow_threshold_ns = -1;
  std::size_t slow_log_capacity = 1024;
  // Optional per-request span collection (caller-owned, must outlive the
  // service); see serve/trace.hpp.
  ServeTracer* tracer = nullptr;
};

// Outcome of one applied MutationBatch (apply_mutations).  On success the
// service is serving the mutated instance and the cache counters say how the
// radius-bounded invalidation went; on failure (`ok == false`) the batch was
// rejected before any state changed and `error` carries the reason.
struct MutationOutcome {
  bool ok = false;
  std::string error;
  std::size_t cache_evicted = 0;
  std::size_t cache_retained = 0;
  bool flushed = false;  // invalidation fell back to the full flush
  std::int64_t apply_ns = 0;
};

// Since-start latency histogram: 2^6 sub-buckets per power of two, so a
// reported percentile is at most 1/64 above the exact one.
using LatencyHistogram = obs::BasicLogHistogram<6>;

// One answered query; `status == InvalidNode` leaves label/meters zero.
struct QueryResult {
  std::uint64_t request_id = 0;
  std::int64_t node = 0;
  int label = 0;
  std::int64_t volume = 0;
  std::int64_t distance = 0;
  std::int64_t queries = 0;
  std::int64_t latency_ns = 0;
  QueryStatus status = QueryStatus::Ok;
};

enum class Admission {
  Accepted,  // callback will run exactly once
  Shed,      // queue full — retry after ServeConfig::retry_after_ms
  Stopped,   // draining/stopped — no retry
};

// Monotonic counter snapshot (swaps counts completed swap_target calls).
// The live values are registry counters ("serve.accepted", ...); this struct
// is the point-in-time read counters() returns.
struct ServeCounters {
  std::int64_t accepted = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t invalid = 0;
  std::int64_t swaps = 0;
};

class QueryService {
 public:
  QueryService(ServeTarget target, ServeConfig config);
  ~QueryService();  // drains if the caller has not

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Enqueues one query.  On Accepted, `done` runs exactly once, on a worker
  // thread, before drain_and_stop() returns.  On Shed/Stopped, `done` never
  // runs (the transport answers with a Shed frame).
  Admission submit(std::uint64_t request_id, std::int64_t node,
                   std::function<void(const QueryResult&)> done);

  // Atomically replaces the served target.  In-flight batches complete
  // against the old target; the old mapping is released when its last
  // holder drops it.  Safe under full load.
  void swap_target(ServeTarget next);

  // Applies `batch` to the served instance copy-on-write and swaps the
  // mutated instance in, invalidating only the cache entries the mutation
  // can reach: entries whose center is within their cached depth of a
  // touched node (ViewCache::invalidate_region) are evicted, everything
  // farther away stays warm.  In-flight waves finish against the old target
  // exactly as under swap_target — the old mapping outlives its last batch.
  //
  // The certification BFS is bounded at the plan radius, the depth of every
  // ball a batchable target caches; a non-batchable target caches nothing,
  // so its updates skip the invalidation (0 evicted, 0 retained, no flush).
  // An invalid batch (bad rewire, unsupported label channel) is rejected
  // whole: `ok == false`, the served target and the cache are untouched.
  // Safe under full load and from any thread; calls serialize with each
  // other and with swap_target.
  MutationOutcome apply_mutations(const MutationBatch& batch);

  // Stops admission, completes every accepted request, joins the workers.
  // Idempotent; submit() returns Stopped from the moment this starts.
  void drain_and_stop();

  int threads() const { return threads_; }
  const ServeConfig& config() const { return config_; }
  NodeIndex node_count() const;

  ServeCounters counters() const;
  CacheStats cache_stats() const { return cache_.stats(); }

  // Summary of the enqueue->completion latencies of every completed request,
  // read from the since-start histogram under lock; callable at any time.
  // count, min, max and mean are exact; p50/p95/p99 are nearest-rank bucket
  // upper bounds clamped to [min, max], at most 1/64 above the exact value.
  stats::Summary latency_summary() const;
  // Nearest-rank summary over completions of the last
  // config().stats_window_seconds (bounded ring — under sustained load the
  // window may cover only the newest samples).
  stats::Summary window_latency_summary() const;

  // The service's metric namespace.  The transport registers its own
  // gauges/counters here (serve.connections, serve.accept_retries) so one
  // Stats snapshot covers the whole serving stack.
  obs::MetricsRegistry& metrics() { return metrics_; }

  std::size_t queue_depth() const;
  std::size_t in_flight() const;
  double uptime_seconds() const;

  // The slow-query log, oldest first (empty unless slow_threshold_ns >= 0).
  std::vector<SlowQuery> slow_queries() const;

  // One JSON object: the live metrics snapshot served as the Stats frame
  // payload and written per --stats-interval tick.  Layout documented in
  // DESIGN.md "Live observability".
  std::string stats_json() const;

 private:
  struct Request {
    std::uint64_t id = 0;
    std::int64_t node = 0;
    std::function<void(const QueryResult&)> done;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t seq = 0;  // admission sequence — the tracing request ID
  };

  // Per-request completion context the worker threads hand to finish():
  // which wave the request rode, its timeline so far, and its cache outcome.
  struct FinishContext {
    int worker = -1;
    std::uint64_t wave = 0;
    std::chrono::steady_clock::time_point dequeued;
    std::chrono::steady_clock::time_point exec_end;
    bool cache_hit = false;
    obs::Histogram* volume_hist = nullptr;
  };

  // One completed latency sample with its completion time (steady ns since
  // start_), feeding both the since-start histogram and the window ring.
  struct LatencySample {
    std::int64_t done_ns = 0;
    std::int64_t latency_ns = 0;
  };

  std::shared_ptr<const ServeTarget> current_target() const;
  // Snapshots the target and (when `cache` is non-null) binds the cache to
  // its view in one critical section on target_mu_.  Workers must use this
  // rather than current_target() + bind(): bind() outside the lock could
  // observe a *newer* graph than the snapshotted target after a racing
  // swap/mutation and full-flush entries apply_mutations just certified.
  std::shared_ptr<const ServeTarget> snapshot_target_and_bind(ViewCache* cache);
  void worker_loop(int worker);
  void finish(Request& req, QueryResult result, const FinishContext& ctx,
              std::vector<LatencySample>& local_samples);
  std::int64_t since_start_ns(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - start_).count();
  }

  ServeConfig config_;
  int threads_ = 1;
  int batch_max_ = 64;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex target_mu_;
  std::shared_ptr<const ServeTarget> target_;

  ViewCache cache_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;  // workers wait for requests / stop
  std::condition_variable idle_;       // drain waits for queue+in-flight == 0
  std::deque<Request> queue_;
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  bool stop_ = false;

  // Metric namespace of this service instance (per-instance so tests and
  // multi-service processes keep exact per-service counts); handles cached
  // at construction, bumped lock-free on the query path.
  obs::MetricsRegistry metrics_;
  obs::Counter* c_accepted_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_invalid_ = nullptr;
  obs::Counter* c_swaps_ = nullptr;
  obs::Counter* c_batches_ = nullptr;
  obs::Counter* c_waves_ = nullptr;
  obs::Counter* c_batched_starts_ = nullptr;
  obs::Counter* c_cache_hit_serves_ = nullptr;
  obs::Counter* c_slow_ = nullptr;
  obs::Counter* c_mutations_ = nullptr;
  obs::Counter* c_mut_evicted_ = nullptr;
  obs::Counter* c_mut_retained_ = nullptr;
  obs::Histogram* h_latency_us_ = nullptr;

  std::atomic<std::uint64_t> seq_{0};   // admission sequence
  std::atomic<std::uint64_t> wave_{0};  // wave (popped batch) sequence

  // Since-start latency histogram plus a bounded ring of recent completions
  // for the sliding window.
  mutable std::mutex stats_mu_;
  LatencyHistogram latency_hist_;
  std::vector<LatencySample> window_ring_;
  std::size_t window_next_ = 0;

  mutable std::mutex slow_mu_;
  std::deque<SlowQuery> slow_;

  std::vector<std::thread> workers_;
};

}  // namespace volcal::serve
