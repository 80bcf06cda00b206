// ViewCache — memoized radius-r ball costs for the cached ball wave.
//
// Every upper-bound algorithm in the paper probes balls (Defs. 2.1-2.2), and
// a query stream that revisits a center re-derives the same BFS
// ball: Θ(Δ^r) pointer-chasing per repeat for a ball(r) family.  The cache
// stores, per center node, the per-depth summary of the ball's *canonical
// BFS expansion* — volume and cumulative query count at every depth — and
// serves the three cost meters of any radius up to the stored depth.
//
// Owner: the query service (serve::QueryService, ServeConfig::cache) — the
// repeated-query setting where centers recur.  Sweeps never build one: their
// starts are distinct, so a sweep-side cache could only add work.
//
// One protocol looks balls up and stores them: run_cached_ball_wave
// (runtime/batched_execution.hpp).  A wave reads the epoch, serves full hits
// through serve_costs(), fuses the misses into one BatchedBallExecutor run,
// and store()s each fused expansion.  The cache's owner binds it and runs
// invalidate_region(); the per-start Execution does not know the cache
// exists.
//
// Exactness contract (the reason results stay bit-identical under any
// policy, thread count, or eviction schedule):
//   * the level-synchronous BFS from a fixed center on a fixed graph is
//     deterministic, and exploring to radius r is an exact prefix of
//     exploring to any R >= r.  An entry of depth R therefore answers every
//     radius r <= R (and any radius once the component is exhausted) with
//     exactly the meters explore_ball(center, r) would report.  A request
//     deeper than the stored depth is a miss; the wave rebuilds the ball and
//     store() keeps the deeper expansion.
//   * Cost accounting is untouched: a served ball reports the volume,
//     distance and query count the direct exploration would have produced.
//     The cache amortizes wall time, never the model's costs (asserted per
//     served query by bench_runner's hot-set rows, fuzzed by
//     tools/volcal_fuzz --cache, and checked end to end by volcal_load
//     --verify).
//
// Concurrency: the table is sharded by mix64(center); lookups take a shard
// shared_mutex in shared mode (the hit path never takes an exclusive lock),
// inserts/evictions take it exclusive.  Recency is one reference bit per
// entry, set by a hit only when it is clear, so a hot entry's line is written
// once per eviction round, not once per hit, and hits share no counter.
// The hit/miss/eviction meters are obs::Counter (per-thread sharded), so
// concurrent hits on different worker threads never contend on one counter
// cache line; stats() sums the shards.
// Memory is bounded by a byte budget split across shards with second-chance
// (CLOCK-style) eviction per shard, so a long-running service cannot blow
// RSS.  Invalidation is O(1): an epoch bump, with shards lazily cleared on
// next touch.
// Hot-swap safety: epochs alone cannot order a store against a concurrent
// re-bind (a worker whose binding went stale before it captured the epoch
// would park old-graph balls at the post-swap epoch), so every entry also
// carries the StorageToken its ball was computed against — store() rejects
// a token that no longer matches the binding, and lookups only serve
// entries whose token equals the queried view's.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "obs/registry.hpp"
#include "runtime/sweep_stats.hpp"
#include "util/hash.hpp"

namespace volcal {

// Cache knob of the query service (ServeConfig::cache; volcal_serve
// --cache / --cache-mb).
struct CacheConfig {
  CachePolicy policy = CachePolicy::Off;
  std::size_t byte_budget = std::size_t{256} << 20;

  static bool policy_from_name(const char* name, CachePolicy* out);
};

// The per-depth summary of a ball's canonical BFS expansion, fully expanded
// to `depth` levels — everything the cost meters of a served ball need:
//   level_end[d]    — |N_center(d)|, nodes at distance <= d (level_end[0] == 1);
//   cum_queries[d]  — query() calls explore_ball(center, d) makes;
//   exhausted       — the frontier emptied at `depth`: the ball is its whole
//                     component and serves any radius.
// The discovery order itself is not kept: no reader of the cache needs it.
struct CachedBall {
  std::vector<std::int64_t> level_end;
  std::vector<std::int64_t> cum_queries;
  std::int64_t depth = 0;
  bool exhausted = false;

  std::size_t bytes() const {
    return sizeof(CachedBall) +
           (level_end.capacity() + cum_queries.capacity()) * sizeof(std::int64_t);
  }

  // Depth of the deepest non-empty level within the first `radius` levels —
  // what the distance meter of a served execution must read.
  std::int64_t max_layer(std::int64_t radius) const {
    for (std::int64_t d = std::min(radius, depth); d >= 1; --d) {
      if (level_end[static_cast<std::size_t>(d)] >
          level_end[static_cast<std::size_t>(d) - 1]) {
        return d;
      }
    }
    return 0;
  }
};

// The three cost meters of one served ball (ViewCache::serve_costs) —
// exactly what a BasicExecution running explore_ball(center, radius) would
// report as volume() / distance() / query_count().
struct BallCosts {
  std::int64_t volume = 0;
  std::int64_t distance = 0;
  std::int64_t queries = 0;
};

class ViewCache {
 public:
  explicit ViewCache(CacheConfig config = {}) : config_(config) {
    shards_ = std::make_unique<Shard[]>(kShards);
    for (std::size_t s = 0; s < kShards; ++s) shards_[s].epoch = 0;
  }

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  const CacheConfig& config() const { return config_; }

  // Binds the cache to one graph.  Entries are only valid for the bound
  // graph; binding a different one invalidates everything first.  The query
  // service binds it under its target lock before every wave.  Identity is the
  // view's storage *token* (graph_view.hpp), minted once per build / adopt /
  // snapshot load and never reused in a process — so an owning Graph and a
  // snapshot mapping of the same instance are, correctly, different cache
  // bindings, and a new snapshot mmap'ed at a recycled address can never
  // alias a previous binding (the pointer-ABA case).  Anonymous views
  // (token 0) are uncacheable and leave the binding untouched.
  void bind(GraphView g) {
    const StorageToken id = g.storage_identity();
    if (id == kAnonymousStorage) return;
    const StorageToken cur = bound_.load(std::memory_order_acquire);
    if (cur == id) return;
    if (cur != kAnonymousStorage) invalidate();
    bound_.store(id, std::memory_order_release);
  }

  // O(1) full invalidation: epoch bump; shards clear lazily on next touch.
  // This is the *engine-internal* flush — bind()'s graph-change path.  It is
  // NOT the data-mutation signal: mutations go through graph/mutation.hpp
  // and invalidate_region(), which evicts only the balls a structural delta
  // can actually reach (and migrates the rest to the new storage identity).
  void invalidate() {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Outcome of one invalidate_region sweep (entry counts across all shards).
  struct RegionInvalidation {
    std::size_t evicted = 0;
    std::size_t retained = 0;
    bool fell_back_to_flush = false;  // preconditions unmet: full flush instead
  };

  // Scoped invalidation for a structural mutation, replacing the global epoch
  // bump.  `old_view` is the pre-mutation graph this cache is bound to;
  // `touched` are the mutation's structural endpoints (AppliedMutation::
  // touched); `new_token` is the post-mutation storage identity.  A cached
  // ball of depth d centered at c is *certified unchanged* when no touched
  // node lies within old-graph distance d of c:
  //
  //   Every adjacency list the canonical BFS replay of that ball reads
  //   belongs to a node at distance < d, and by induction on path length any
  //   new-graph path from c into the touched set must first enter the touched
  //   set over edges that exist unchanged in the old graph — so
  //   dist_old(c, touched) > d implies dist_new(c, touched) > d and
  //   ball_new(c, e) == ball_old(c, e) query-for-query at every e <= d.
  //   Exhausted entries are covered too: the ball is its whole component, so
  //   a touched node anywhere in the component sits at dist <= d and evicts.
  //
  // Distances come from one multi-source BFS from `touched`, bounded at
  // max_radius levels; entries deeper than max_radius cannot be certified
  // inside that horizon and are evicted outright (callers pass the deepest
  // radius their workload caches — the serve path uses its plan's radius).
  //
  // Surviving entries are re-stamped to `new_token` and the binding moves to
  // `new_token` with NO epoch bump — they go on serving the new graph, which
  // is the whole point.  The binding is moved *before* the shard sweep, so a
  // racing store of an old-graph ball is rejected by store()'s binding check
  // and a racing lookup through the old view misses on the per-entry token;
  // neither can slip a stale ball past the sweep.  (The serve path
  // additionally serializes this against worker re-binds under its target
  // lock; see QueryService::apply_mutations.)
  //
  // Preconditions: the cache is bound to old_view's token and both tokens are
  // real.  Otherwise nothing is certifiable and the call degrades to the full
  // flush (fell_back_to_flush in the result), binding to `new_token`.
  RegionInvalidation invalidate_region(GraphView old_view,
                                       std::span<const NodeIndex> touched,
                                       std::int64_t max_radius, StorageToken new_token) {
    RegionInvalidation out;
    const StorageToken old_token = old_view.storage_identity();
    if (old_token == kAnonymousStorage || new_token == kAnonymousStorage ||
        bound_.load(std::memory_order_acquire) != old_token || max_radius < 0) {
      invalidate();
      bound_.store(new_token, std::memory_order_release);
      out.fell_back_to_flush = true;
      return out;
    }
    bound_.store(new_token, std::memory_order_release);

    // dist[v] = old-graph distance from the touched set, -1 beyond the
    // max_radius horizon (or unreachable).
    const NodeIndex n = old_view.node_count();
    std::vector<std::int32_t> dist(static_cast<std::size_t>(n), -1);
    std::vector<NodeIndex> frontier;
    std::vector<NodeIndex> next;
    for (const NodeIndex v : touched) {
      if (v >= 0 && v < n && dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = 0;
        frontier.push_back(v);
      }
    }
    for (std::int32_t d = 0; d < max_radius && !frontier.empty(); ++d) {
      for (const NodeIndex v : frontier) {
        for (const NodeIndex u : old_view.neighbors(v)) {
          auto& du = dist[static_cast<std::size_t>(u)];
          if (du < 0) {
            du = d + 1;
            next.push_back(u);
          }
        }
      }
      frontier.swap(next);
      next.clear();
    }

    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    for (std::size_t s = 0; s < kShards; ++s) {
      Shard& shard = shards_[s];
      std::unique_lock lock(shard.mu);
      reconcile_epoch_locked(shard, epoch);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        Entry& entry = *it->second;
        if (entry.token == new_token) {  // already a new-graph ball
          ++out.retained;
          ++it;
          continue;
        }
        const NodeIndex center = it->first;
        const std::int64_t d =
            (center >= 0 && center < n)
                ? static_cast<std::int64_t>(dist[static_cast<std::size_t>(center)])
                : 0;
        const bool certified = entry.token == old_token &&
                               entry.ball.depth <= max_radius &&
                               (d < 0 || d > entry.ball.depth);
        if (certified) {
          entry.token = new_token;
          ++out.retained;
          ++it;
        } else {
          shard.bytes -= entry.ball.bytes();
          it = shard.map.erase(it);
          evictions_.inc();
          ++out.evicted;
        }
      }
    }
    return out;
  }

  CacheStats stats() const {
    CacheStats s;
    s.policy = config_.policy;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.evictions = evictions_.value();
    s.served_nodes = served_nodes_.value();
    s.inserted_bytes = inserted_bytes_.value();
    return s;
  }

  // Entry count across shards (test / introspection helper; takes locks).
  std::size_t entry_count() const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      std::shared_lock lock(shards_[s].mu);
      if (shards_[s].epoch == epoch_.load(std::memory_order_acquire)) {
        n += shards_[s].map.size();
      }
    }
    return n;
  }

  // The lookup: when the cache holds a full expansion of N_center(radius),
  // writes the exact meters explore_ball(center, radius) would report
  // (volume / distance / queries) and counts a hit; otherwise counts a miss
  // and returns false so the caller rebuilds the ball (a shallower entry is
  // not resumed — the executor rebuilds from scratch and store() keeps the
  // deeper result).  Caller must have bound the cache to `g` first.
  bool serve_costs(GraphView g, NodeIndex center, std::int64_t radius,
                   BallCosts* out) {
    const StorageToken id = g.storage_identity();
    if (id == kAnonymousStorage ||
        bound_.load(std::memory_order_acquire) != id || radius < 0) {
      return false;
    }
    Shard& shard = shard_of(center);
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    {
      std::shared_lock lock(shard.mu);
      if (shard.epoch == epoch) {
        auto it = shard.map.find(center);
        // entry.token == id closes the hot-swap race window: between the
        // binding check above and this lookup, a concurrent bind() can have
        // re-bound the cache and let another worker repopulate the shard
        // with balls for a *different* graph at the epoch we captured.  The
        // entry's own token records which graph its ball was computed on; a
        // mismatch is a miss, never a served ball.
        if (it != shard.map.end() && it->second->token == id) {
          Entry& entry = *it->second;
          const CachedBall& ball = entry.ball;
          if (ball.depth >= radius || ball.exhausted) {
            // Test before set: a hot entry's line stays shared across hits.
            if (!entry.referenced.load(std::memory_order_relaxed)) {
              entry.referenced.store(true, std::memory_order_relaxed);
            }
            const std::int64_t d = std::min(radius, ball.depth);
            out->volume = ball.level_end[static_cast<std::size_t>(d)];
            out->distance = ball.max_layer(radius);
            out->queries = ball.cum_queries[static_cast<std::size_t>(d)];
            hits_.inc();
            served_nodes_.inc(out->volume);
            return true;
          }
        }
      }
    }
    misses_.inc();
    return false;
  }

  // Inserts (or deepens) the entry for `center`, evicting entries of the
  // shard (second chance, see evict_one_locked) until the shard byte budget
  // holds.  `token` is the storage identity
  // the ball was computed against; a store whose token no longer matches the
  // current binding is dropped.  The epoch check alone cannot catch a worker
  // whose binding went stale *before* it captured the epoch (it would store
  // old-graph balls at the post-swap epoch); the token check under the shard
  // lock rejects that store, and the per-entry token validated on lookup
  // covers the residual window where bound_ has not yet moved.  Public so
  // tests can exercise eviction and the rejection paths directly.
  void store(NodeIndex center, CachedBall&& ball, std::uint64_t at_epoch,
             StorageToken token) {
    if (token == kAnonymousStorage) return;
    Shard& shard = shard_of(center);
    ball.level_end.shrink_to_fit();
    ball.cum_queries.shrink_to_fit();
    const std::size_t size = ball.bytes();
    const std::size_t budget = std::max<std::size_t>(config_.byte_budget / kShards, 1);
    std::unique_lock lock(shard.mu);
    if (at_epoch != epoch_.load(std::memory_order_acquire)) return;  // stale build
    if (bound_.load(std::memory_order_acquire) != token) return;     // stale binding
    reconcile_epoch_locked(shard, at_epoch);
    auto it = shard.map.find(center);
    if (it != shard.map.end()) {
      if (it->second->token == token && it->second->ball.depth >= ball.depth) {
        return;  // raced with a deeper store of the same graph's ball
      }
      shard.bytes -= it->second->ball.bytes();
      shard.map.erase(it);
    }
    if (size > budget) {
      // A single ball larger than the shard budget is never cached.
      evictions_.inc();
      return;
    }
    while (shard.bytes + size > budget && !shard.map.empty()) {
      evict_one_locked(shard);
    }
    auto entry = std::make_unique<Entry>();
    entry->ball = std::move(ball);
    entry->token = token;
    shard.bytes += size;
    inserted_bytes_.inc(static_cast<std::int64_t>(size));
    shard.map.emplace(center, std::move(entry));
  }

  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  struct Entry {
    CachedBall ball;
    // Storage identity the ball was computed against — lookups serve an
    // entry only when it matches the queried view's token, so balls parked
    // by a worker racing a hot swap can never answer for the wrong graph.
    StorageToken token = kAnonymousStorage;
    // Set by a hit since the last eviction scan passed this entry.
    std::atomic<bool> referenced{false};
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<NodeIndex, std::unique_ptr<Entry>> map;
    std::size_t bytes = 0;
    std::uint64_t epoch = 0;
  };

  static constexpr std::size_t kShards = 64;  // power of two

  Shard& shard_of(NodeIndex center) const {
    return shards_[splitmix64(static_cast<std::uint64_t>(center)) & (kShards - 1)];
  }

  // Lazy epoch reconciliation: drop the shard's content if the cache was
  // invalidated since the shard was last touched.  Caller holds shard.mu
  // exclusively.
  void reconcile_epoch_locked(Shard& shard, std::uint64_t epoch) {
    if (shard.epoch == epoch) return;
    shard.map.clear();
    shard.bytes = 0;
    shard.epoch = epoch;
  }

  // Second chance: the scan clears the reference bits it passes and evicts
  // the first entry found clear; when every bit was set, the scan has
  // cleared them all and the first entry goes.  Caller holds shard.mu
  // exclusively (no hit can set a bit mid-scan).
  void evict_one_locked(Shard& shard) {
    auto victim = shard.map.begin();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      if (!it->second->referenced.exchange(false, std::memory_order_relaxed)) {
        victim = it;
        break;
      }
    }
    shard.bytes -= victim->second->ball.bytes();
    shard.map.erase(victim);
    evictions_.inc();
  }

  CacheConfig config_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<StorageToken> bound_{kAnonymousStorage};
  std::atomic<std::uint64_t> epoch_{1};
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter served_nodes_;
  obs::Counter inserted_bytes_;
};

}  // namespace volcal
