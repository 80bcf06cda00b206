// View-cache exactness contract (runtime/view_cache.hpp): a ball served
// through the cached ball wave (run_cached_ball_wave, the one path into the
// cache) must report exactly the volume/distance/query meters of a direct
// explore_ball — on a miss, a full hit, a shorter-radius prefix, a deeper
// radius than stored, and an exhausted component — from any number of
// workers, and under any eviction schedule.  Plus the ExecutionScratch epoch
// wrap-around regression, and that sweeps refuse a cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "labels/generators.hpp"
#include "lcl/registry.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

struct BallMeters {
  std::int64_t volume = 0;
  std::int64_t distance = 0;
  std::int64_t queries = 0;

  friend bool operator==(const BallMeters&, const BallMeters&) = default;
};

// One fresh direct exploration — the ground truth the cache must reproduce.
BallMeters direct_ball(GraphView g, const IdAssignment& ids, NodeIndex center,
                       std::int64_t radius) {
  Execution exec(g, ids, center);
  explore_ball(exec, radius);
  return {exec.volume(), exec.distance(), exec.query_count()};
}

// One center through the cached ball wave, bound the way its callers bind:
// cache and executor to `g` first.
BallMeters cached_ball(GraphView g, ViewCache& cache, NodeIndex center,
                       std::int64_t radius) {
  cache.bind(g);
  BatchedBallExecutor exec;
  exec.bind(g);
  BallMeters out;
  const auto take = [&](const BallCosts& c) { out = {c.volume, c.distance, c.queries}; };
  const NodeIndex centers[1] = {center};
  run_cached_ball_wave(
      exec, g, centers, radius, &cache, g.storage_identity(),
      [&](std::size_t, const BallCosts& costs) { take(costs); },
      [&](std::span<const std::size_t>, std::span<const BallCosts> costs) {
        take(costs[0]);
      });
  return out;
}

// A minimal cache entry: the zero-radius ball of one node.
CachedBall point_ball() {
  CachedBall ball;
  ball.level_end = {1};
  ball.cum_queries = {0};
  return ball;
}

TEST(ExecutionScratch, EpochWrapAroundDoesNotResurrectStamps) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  ExecutionScratch scratch(inst.node_count());
  // Place the counter so the next execution runs at epoch 2^32-1 (the
  // 32-bit stamps' last value) and stamps nodes with it...
  scratch.set_epoch_for_testing(std::numeric_limits<std::uint32_t>::max() - 1);
  {
    Execution exec(inst.graph, inst.ids, 0, 0, scratch);
    explore_ball(exec, 2);
    EXPECT_GT(exec.volume(), 1);
  }
  EXPECT_EQ(scratch.epoch_for_testing(), std::numeric_limits<std::uint32_t>::max());
  // ...so this begin() must take the wrap guard.  Without it the epoch would
  // wrap to 0 — the "never visited" stamp value — and every untouched slot
  // in the scratch would read as visited by the new execution.
  Execution exec(inst.graph, inst.ids, 0, 0, scratch);
  EXPECT_EQ(scratch.epoch_for_testing(), 1u);
  EXPECT_EQ(exec.volume(), 1);
  for (NodeIndex v = 1; v < inst.node_count(); ++v) {
    EXPECT_FALSE(exec.visited(v)) << "stale stamp resurrected at node " << v;
  }
  const auto ball4 = explore_ball(exec, 4);
  EXPECT_EQ(static_cast<std::int64_t>(ball4.size()), exec.volume());
}

// Every service path against ground truth, on a tree and on a graph with a
// cycle: miss -> full hit -> shorter-radius prefix -> deeper radius (a miss
// that rebuilds and stores the deeper ball) -> exhausted-component service
// beyond the diameter.
TEST(ViewCache, ServesBitIdenticalBallsOnEveryPath) {
  const auto tree = make_complete_binary_tree(6, Color::Red, Color::Blue);
  const auto cycle = make_cycle_pseudotree(12, 3, /*seed=*/5);
  for (const LeafColoringInstance* inst : {&tree, &cycle}) {
    const Graph& g = inst->graph;
    ViewCache cache;
    for (const NodeIndex center : {NodeIndex{0}, g.node_count() / 2, g.node_count() - 1}) {
      for (const std::int64_t radius : {4, 4, 2, 6, 3, 64, 64, 0}) {
        EXPECT_EQ(direct_ball(g, inst->ids, center, radius),
                  cached_ball(g, cache, center, radius))
            << "center " << center << " radius " << radius;
      }
    }
    const CacheStats stats = cache.stats();
    EXPECT_GT(stats.hits, 0);
    EXPECT_GT(stats.misses, 0);
    EXPECT_EQ(stats.hits + stats.misses, 3 * 8);
    EXPECT_GT(stats.served_nodes, 0);
  }
}

TEST(ViewCache, EvictionKeepsResultsExactUnderTinyBudget) {
  const auto inst = make_random_full_binary_tree(601, /*seed=*/11);
  // A few KiB across 64 shards: every shard holds at most one small ball, so
  // stores continually evict.
  CacheConfig config;
  config.policy = CachePolicy::Shared;
  config.byte_budget = std::size_t{16} << 10;
  ViewCache cache(config);
  for (int round = 0; round < 3; ++round) {
    for (NodeIndex center = 0; center < inst.node_count(); center += 7) {
      EXPECT_EQ(direct_ball(inst.graph, inst.ids, center, 5),
                cached_ball(inst.graph, cache, center, 5));
    }
  }
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ViewCache, OversizedBallIsSkippedNotCorrupted) {
  const auto inst = make_complete_binary_tree(7, Color::Red, Color::Blue);
  CacheConfig config;
  config.policy = CachePolicy::Shared;
  config.byte_budget = 64;  // smaller than any ball entry
  ViewCache cache(config);
  EXPECT_EQ(direct_ball(inst.graph, inst.ids, 0, 6), cached_ball(inst.graph, cache, 0, 6));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(ViewCache, InvalidateDropsEntriesAndBindSwitchesGraphs) {
  const auto a = make_complete_binary_tree(5, Color::Red, Color::Blue);
  const auto b = make_random_full_binary_tree(201, /*seed=*/3);
  ViewCache cache;
  cached_ball(a.graph, cache, 0, 4);
  EXPECT_GT(cache.entry_count(), 0u);
  cache.invalidate();
  EXPECT_EQ(cache.entry_count(), 0u);
  const std::int64_t misses_before = cache.stats().misses;
  cached_ball(a.graph, cache, 0, 4);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  // Re-binding to a different graph invalidates; results on the new graph
  // stay exact.
  cache.bind(b.graph);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(direct_ball(b.graph, b.ids, 7, 5), cached_ball(b.graph, cache, 7, 5));
}

TEST(ViewCache, PolicyFromName) {
  CachePolicy parsed = CachePolicy::Off;
  EXPECT_TRUE(CacheConfig::policy_from_name("shared", &parsed));
  EXPECT_EQ(parsed, CachePolicy::Shared);
  EXPECT_TRUE(CacheConfig::policy_from_name("off", &parsed));
  EXPECT_EQ(parsed, CachePolicy::Off);
  // `perstart` / `per-start` name no policy; rejection leaves the output alone.
  parsed = CachePolicy::Shared;
  for (const char* removed : {"perstart", "per-start", "sharde"}) {
    EXPECT_FALSE(CacheConfig::policy_from_name(removed, &parsed)) << removed;
    EXPECT_EQ(parsed, CachePolicy::Shared);
  }
}

// Second-chance eviction: a hit marks its entry referenced, and the eviction
// scan spares it once (clearing the bit) and takes an unreferenced entry.
TEST(ViewCache, ReferencedEntrySurvivesAnEvictionRound) {
  const auto inst = make_complete_binary_tree(8, Color::Red, Color::Blue);
  const StorageToken token = inst.graph.view().storage_identity();
  // Three centers in one shard (the table shards by splitmix64(center) over
  // 64 shards; if that changes, the entry counts below fail loudly).
  std::vector<NodeIndex> same;
  const std::uint64_t shard = splitmix64(0) & 63;
  for (NodeIndex v = 0; same.size() < 3 && v < inst.node_count(); ++v) {
    if ((splitmix64(static_cast<std::uint64_t>(v)) & 63) == shard) same.push_back(v);
  }
  ASSERT_EQ(same.size(), 3u);
  // Room for two point balls per shard, not three.
  const std::size_t entry = point_ball().bytes();
  CacheConfig config;
  config.policy = CachePolicy::Shared;
  config.byte_budget = 64 * (2 * entry + entry / 2);
  ViewCache cache(config);
  cache.bind(inst.graph);
  cache.store(same[0], point_ball(), cache.epoch(), token);
  cache.store(same[1], point_ball(), cache.epoch(), token);
  ASSERT_EQ(cache.entry_count(), 2u);
  BallCosts costs;
  ASSERT_TRUE(cache.serve_costs(inst.graph, same[0], 0, &costs));  // referenced
  cache.store(same[2], point_ball(), cache.epoch(), token);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.serve_costs(inst.graph, same[0], 0, &costs));
  EXPECT_FALSE(cache.serve_costs(inst.graph, same[1], 0, &costs));
  EXPECT_TRUE(cache.serve_costs(inst.graph, same[2], 0, &costs));
}

// --- Sweeps run uncached; repeated centers are served on the wave path ----

CacheConfig policy_config(CachePolicy policy) {
  CacheConfig c;
  c.policy = policy;
  return c;
}

TEST(ViewCacheSweep, SweepsRunUncachedAndRejectASharedCache) {
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    SCOPED_TRACE(entry.name);
    const ErasedInstance inst = entry.make(300, /*seed=*/21);
    auto solver = [&](Execution& exec) { return inst.solve(exec); };
    const auto baseline = ParallelRunner(1, policy_config(CachePolicy::Off))
                              .run_at_all_nodes(inst.graph(), inst.ids(), solver);
    const auto run = ParallelRunner(8, policy_config(CachePolicy::Off))
                         .run_at_all_nodes(inst.graph(), inst.ids(), solver);
    EXPECT_EQ(baseline.output, run.output);
    EXPECT_EQ(baseline.volume, run.volume);
    EXPECT_EQ(baseline.distance, run.distance);
    EXPECT_EQ(baseline.queries, run.queries);
    EXPECT_TRUE(same_costs(baseline.stats, run.stats));
  }
  // A caller asking a sweep for a cache learns it gets none.
  EXPECT_THROW(ParallelRunner(1, policy_config(CachePolicy::Shared)), std::invalid_argument);
}

// The serving protocol over one cache shared by several workers (the same
// interleaving the query service runs; the tsan CI job runs this test).
TEST(ViewCacheWave, SharedCacheHitsOnRepeatedStarts) {
  const auto inst = make_complete_binary_tree(8, Color::Red, Color::Blue);
  const GraphView g = inst.graph;
  constexpr std::int64_t kRadius = 4;
  constexpr auto kBatch = static_cast<std::size_t>(BatchedBallExecutor::kMaxBatch);
  // Three centers cycled over 160 starts in consecutive 64-center waves: the
  // first wave fuses every start (a wave looks all its centers up before
  // storing any); the 96 starts of the two later waves repeat stored centers.
  std::vector<NodeIndex> starts;
  for (int i = 0; i < 160; ++i) starts.push_back(NodeIndex{(i % 3) * 5});
  const std::span<const NodeIndex> span(starts);
  for (const int workers : {1, 8}) {
    SCOPED_TRACE(workers);
    ViewCache cache(policy_config(CachePolicy::Shared));
    cache.bind(g);
    std::vector<BallMeters> served(starts.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::int64_t> fused{0};
    detail::run_on_workers(workers, [&](int) {
      BatchedBallExecutor exec;
      exec.bind(g);
      for (std::size_t begin = next.fetch_add(kBatch); begin < starts.size();
           begin = next.fetch_add(kBatch)) {
        const std::size_t len = std::min(kBatch, starts.size() - begin);
        run_cached_ball_wave(
            exec, g, span.subspan(begin, len), kRadius, &cache, g.storage_identity(),
            [&](std::size_t k, const BallCosts& c) {
              served[begin + k] = {c.volume, c.distance, c.queries};
            },
            [&](std::span<const std::size_t> index, std::span<const BallCosts> costs) {
              for (std::size_t s = 0; s < index.size(); ++s) {
                served[begin + index[s]] = {costs[s].volume, costs[s].distance,
                                            costs[s].queries};
              }
              fused.fetch_add(static_cast<std::int64_t>(index.size()));
            });
      }
    });
    for (std::size_t i = 0; i < starts.size(); ++i) {
      EXPECT_EQ(served[i], direct_ball(g, inst.ids, starts[i], kRadius)) << "start " << i;
    }
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, static_cast<std::int64_t>(starts.size()));
    EXPECT_EQ(fused.load() + stats.hits, static_cast<std::int64_t>(starts.size()));
    // Concurrent waves can both miss a center, so the exact split is
    // serial-only.
    if (workers == 1) {
      EXPECT_EQ(stats.misses, 64);
      EXPECT_EQ(stats.hits, 96);
      EXPECT_GT(stats.served_nodes, 0);
    }
  }
}

// --- Storage-identity tokens (the pointer-ABA regression) ------------------

// Simulates munmap/mmap address reuse across a snapshot swap: two different
// graphs occupy the *same* CSR storage addresses in turn, with one cache
// kept across the swap and bound per wave, as the query service binds it.
// Under the old pointer-valued storage_identity() the cache believed the
// second graph was the first and served graph A's ball for graph B; token
// identity mints a fresh token per adoption, so the rebind invalidates and
// the cache rebuilds.
TEST(ViewCache, RemapAtSameAddressDoesNotServeStaleBalls) {
  auto build = [](std::initializer_list<std::pair<NodeIndex, NodeIndex>> edges) {
    Graph::Builder b(6);
    for (auto [v, w] : edges) b.add_edge(v, w);
    return std::move(b).build();
  };
  // Every node has degree 2 in both (so the offsets arrays are
  // byte-identical), but the radius-2 ball around node 0 differs: the whole
  // 6-cycle reaches 5 nodes on A, a triangle only 3 on B.
  const Graph a = build({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const Graph b = build({{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const GraphView av = a.view();
  const GraphView bv = b.view();
  ASSERT_EQ(av.node_count(), bv.node_count());
  ASSERT_EQ(av.edge_count(), bv.edge_count());
  ASSERT_TRUE(std::equal(av.offsets_data(), av.offsets_data() + 7, bv.offsets_data()));
  const IdAssignment ids = IdAssignment::sequential(6);
  ASSERT_NE(direct_ball(a, ids, 0, 2), direct_ball(b, ids, 0, 2));

  // The shared storage both graphs occupy in turn — fixed addresses, exactly
  // what a recycled mmap region looks like to the cache.
  std::vector<std::size_t> off(av.offsets_data(), av.offsets_data() + 7);
  std::vector<NodeIndex> adj(av.adjacency_data(), av.adjacency_data() + 12);
  ViewCache cache(policy_config(CachePolicy::Shared));

  {
    Graph first =
        Graph::adopt(GraphView(off.data(), adj.data(), 6, av.max_degree()));
    EXPECT_EQ(cached_ball(first, cache, 0, 2), direct_ball(a, ids, 0, 2));
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cached_ball(first, cache, 0, 2), direct_ball(a, ids, 0, 2));
    EXPECT_EQ(cache.stats().hits, 1);
  }

  // The swap: graph B's bytes land at the same addresses.
  std::copy(bv.adjacency_data(), bv.adjacency_data() + 12, adj.begin());
  Graph second =
      Graph::adopt(GraphView(off.data(), adj.data(), 6, bv.max_degree()));
  ASSERT_NE(second.view().storage_identity(), kAnonymousStorage);

  EXPECT_EQ(cached_ball(second, cache, 0, 2), direct_ball(b, ids, 0, 2))
      << "cache served a stale ball from the pre-swap graph (pointer ABA)";
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
}

// The hot-swap store race: a worker that snapshotted the old target, passed
// bind()'s fast path, and only then lost a rebind race captures its epoch
// *after* the swap's invalidation — so the epoch check alone would let it
// park old-graph balls at the post-swap epoch, where serve_costs would hand
// them out for the new graph.  store() must validate the storage token the
// ball was computed against and drop the stale store.
TEST(ViewCache, StoreRejectsStaleBindingAtThePostSwapEpoch) {
  const auto a = make_complete_binary_tree(5, Color::Red, Color::Blue);
  const auto b = make_random_full_binary_tree(201, /*seed=*/3);
  ViewCache cache(policy_config(CachePolicy::Shared));
  cache.bind(a.graph.view());
  const StorageToken stale = a.graph.view().storage_identity();

  // The concurrent swap the worker lost against, then the worker's (too
  // late) epoch capture — exactly the interleaving of the race.
  cache.bind(b.graph.view());
  const std::uint64_t epoch = cache.epoch();

  CachedBall ball = point_ball();  // "computed on A" — the token is what counts
  cache.store(0, std::move(ball), epoch, stale);
  EXPECT_EQ(cache.entry_count(), 0u)
      << "old-graph ball stored at the post-swap epoch";
  BallCosts costs;
  EXPECT_FALSE(cache.serve_costs(b.graph.view(), 0, 0, &costs))
      << "stale ball served for the new graph";

  // The same store tagged with the *current* binding's token is accepted and
  // served — the rejection above was the token check, not a broken store().
  CachedBall fresh = point_ball();
  cache.store(0, std::move(fresh), cache.epoch(),
              b.graph.view().storage_identity());
  EXPECT_EQ(cache.entry_count(), 1u);
  ASSERT_TRUE(cache.serve_costs(b.graph.view(), 0, 0, &costs));
  EXPECT_EQ(costs.volume, 1);
  EXPECT_EQ(costs.queries, 0);

  // Anonymous storage can never be a store identity.
  CachedBall anon = point_ball();
  cache.store(1, std::move(anon), cache.epoch(), kAnonymousStorage);
  EXPECT_EQ(cache.entry_count(), 1u);
}

// --- Region invalidation (dynamic graphs) ----------------------------------

// A path graph gives exact control over old-graph distances: rewiring the far
// end leaf touches {0, N-2, N-1}, so a center c's distance to the touched set
// is min(c, N-2-c).  A ball of depth R is certified exactly when that
// distance exceeds R: distance == R evicts, distance == R + 1 (beyond the
// bounded BFS horizon) retains.
TEST(ViewCacheRegion, EvictsAtMaxRadiusRetainsBeyondIt) {
  constexpr NodeIndex kNodes = 24;
  constexpr std::int64_t kRadius = 3;
  Graph::Builder builder(kNodes);
  for (NodeIndex v = 0; v + 1 < kNodes; ++v) builder.add_edge(v, v + 1);
  const Graph path = std::move(builder).build();
  const IdAssignment ids = IdAssignment::sequential(kNodes);

  MutationBatch batch;
  batch.rewires.push_back({kNodes - 1, 0});  // re-hang the far leaf on node 0
  const AppliedMutation applied = apply_mutation(path.view(), batch);
  ASSERT_EQ(applied.touched, (std::vector<NodeIndex>{0, kNodes - 2, kNodes - 1}));

  ViewCache cache(policy_config(CachePolicy::Shared));
  cache.bind(path.view());
  // Warm: distances to the touched set are 0, 3 (== R, evict), 4 (== R + 1,
  // retain), 11 (deep interior, retain).
  for (const NodeIndex center : {NodeIndex{0}, NodeIndex{3}, NodeIndex{4}, NodeIndex{11}}) {
    cached_ball(path, cache, center, kRadius);
  }
  ASSERT_EQ(cache.entry_count(), 4u);

  const ViewCache::RegionInvalidation inv = cache.invalidate_region(
      path.view(), applied.touched, kRadius, applied.graph.view().storage_identity());
  EXPECT_FALSE(inv.fell_back_to_flush);
  EXPECT_EQ(inv.evicted, 2u);   // centers 0 and 3
  EXPECT_EQ(inv.retained, 2u);  // centers 4 and 11
  EXPECT_EQ(cache.entry_count(), 2u);

  // Retained balls serve the post-mutation graph bit-identically to a cold
  // exploration of it; the evicted centers miss.
  BallCosts costs;
  for (const NodeIndex center : {NodeIndex{4}, NodeIndex{11}}) {
    ASSERT_TRUE(cache.serve_costs(applied.graph.view(), center, kRadius, &costs))
        << "center " << center;
    EXPECT_EQ((BallMeters{costs.volume, costs.distance, costs.queries}),
              direct_ball(applied.graph, ids, center, kRadius))
        << "center " << center;
  }
  EXPECT_FALSE(cache.serve_costs(applied.graph.view(), 0, kRadius, &costs));
  EXPECT_FALSE(cache.serve_costs(applied.graph.view(), 3, kRadius, &costs));
}

// Multi-rewire batches certify against the union of their endpoints: the
// bounded BFS is multi-source, so a center is evicted when ANY touched node
// is within its depth.
TEST(ViewCacheRegion, MultiTouchBatchEvictsAroundEveryEndpoint) {
  constexpr NodeIndex kNodes = 30;
  constexpr std::int64_t kRadius = 2;
  Graph::Builder builder(kNodes);
  for (NodeIndex v = 0; v + 1 < kNodes; ++v) builder.add_edge(v, v + 1);
  const Graph path = std::move(builder).build();

  // Both end leaves re-hung onto interior nodes: touched =
  // {0, 1, 14, 15, 28, 29}.
  MutationBatch batch;
  batch.rewires.push_back({0, 14});
  batch.rewires.push_back({kNodes - 1, 15});
  const AppliedMutation applied = apply_mutation(path.view(), batch);
  ASSERT_EQ(applied.touched,
            (std::vector<NodeIndex>{0, 1, 14, 15, kNodes - 2, kNodes - 1}));

  ViewCache cache(policy_config(CachePolicy::Shared));
  cache.bind(path.view());
  // dist(4) = 3 > R (retain); dist(12) = 2 == R (evict — middle touch);
  // dist(26) = 2 == R (evict — far-end touch); dist(25) = 3 (retain).
  for (const NodeIndex center :
       {NodeIndex{4}, NodeIndex{12}, NodeIndex{25}, NodeIndex{26}}) {
    cached_ball(path, cache, center, kRadius);
  }
  ASSERT_EQ(cache.entry_count(), 4u);
  const ViewCache::RegionInvalidation inv = cache.invalidate_region(
      path.view(), applied.touched, kRadius, applied.graph.view().storage_identity());
  EXPECT_FALSE(inv.fell_back_to_flush);
  EXPECT_EQ(inv.evicted, 2u);
  EXPECT_EQ(inv.retained, 2u);
  BallCosts costs;
  EXPECT_TRUE(cache.serve_costs(applied.graph.view(), 4, kRadius, &costs));
  EXPECT_TRUE(cache.serve_costs(applied.graph.view(), 25, kRadius, &costs));
  EXPECT_FALSE(cache.serve_costs(applied.graph.view(), 12, kRadius, &costs));
  EXPECT_FALSE(cache.serve_costs(applied.graph.view(), 26, kRadius, &costs));

  // A label-only batch has no structural endpoints: nothing is evicted, the
  // binding still moves to the new token.
  ViewCache label_cache(policy_config(CachePolicy::Shared));
  label_cache.bind(path.view());
  cached_ball(path, label_cache, 7, kRadius);
  const ViewCache::RegionInvalidation none = label_cache.invalidate_region(
      path.view(), {}, kRadius, applied.graph.view().storage_identity());
  EXPECT_FALSE(none.fell_back_to_flush);
  EXPECT_EQ(none.evicted, 0u);
  EXPECT_EQ(none.retained, 1u);
}

// The StorageToken handshake around a region invalidation: retained entries
// are re-stamped to the new token (the old view can no longer be served),
// stores tagged with the old token are rejected by the moved binding, and an
// invalidation against a cache bound elsewhere degrades to the full flush.
TEST(ViewCacheRegion, TokenSwapRejectsStaleStoresAndOldViewLookups) {
  constexpr NodeIndex kNodes = 16;
  Graph::Builder builder(kNodes);
  for (NodeIndex v = 0; v + 1 < kNodes; ++v) builder.add_edge(v, v + 1);
  const Graph path = std::move(builder).build();
  MutationBatch batch;
  batch.rewires.push_back({kNodes - 1, 0});
  const AppliedMutation applied = apply_mutation(path.view(), batch);

  ViewCache cache(policy_config(CachePolicy::Shared));
  cache.bind(path.view());
  cached_ball(path, cache, 7, 2);  // dist to touched = 7: retained
  const std::uint64_t epoch = cache.epoch();
  const ViewCache::RegionInvalidation inv = cache.invalidate_region(
      path.view(), applied.touched, 2, applied.graph.view().storage_identity());
  ASSERT_EQ(inv.retained, 1u);

  // The retained entry now belongs to the new graph: lookups through the old
  // view must miss (its token no longer matches the entry).
  BallCosts costs;
  EXPECT_FALSE(cache.serve_costs(path.view(), 7, 2, &costs));
  EXPECT_TRUE(cache.serve_costs(applied.graph.view(), 7, 2, &costs));

  // A worker that raced the invalidation and computed its ball on the old
  // graph cannot park it: store() validates against the moved binding.  The
  // epoch did NOT change — region invalidation never bumps it — so this is
  // purely the token check.
  EXPECT_EQ(cache.epoch(), epoch);
  CachedBall stale = point_ball();
  cache.store(3, std::move(stale), epoch, path.view().storage_identity());
  EXPECT_EQ(cache.entry_count(), 1u) << "old-graph ball stored past the token swap";

  // Bound-elsewhere precondition: a cache not bound to old_view's token
  // cannot certify anything and must flush.
  ViewCache wrong(policy_config(CachePolicy::Shared));
  wrong.bind(applied.graph.view());
  cached_ball(applied.graph, wrong, 7, 2);
  ASSERT_EQ(wrong.entry_count(), 1u);
  const ViewCache::RegionInvalidation flushed = wrong.invalidate_region(
      path.view(), applied.touched, 2, applied.graph.view().storage_identity());
  EXPECT_TRUE(flushed.fell_back_to_flush);
  EXPECT_EQ(wrong.entry_count(), 0u);
}

TEST(ViewCache, StorageTokenSemantics) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  const GraphView v = inst.graph.view();
  EXPECT_NE(v.storage_identity(), kAnonymousStorage);
  // Views of the same Graph share its identity; a bare view over raw arrays
  // is anonymous; owned-storage copies are new storage, adopted copies alias.
  EXPECT_EQ(inst.graph.view().storage_identity(), v.storage_identity());
  const GraphView raw(v.offsets_data(), v.adjacency_data(), v.node_count(),
                      v.max_degree());
  EXPECT_EQ(raw.storage_identity(), kAnonymousStorage);
  const Graph owned_copy = inst.graph;  // copies the CSR arrays
  EXPECT_NE(owned_copy.view().storage_identity(), v.storage_identity());
  const Graph adopted = Graph::adopt(v);
  EXPECT_EQ(adopted.view().storage_identity(), v.storage_identity());
  const Graph adopted_copy = adopted;  // aliases the same storage
  EXPECT_EQ(adopted_copy.view().storage_identity(), v.storage_identity());

  // Anonymous views are uncacheable: the cache must neither bind to them nor
  // serve them (it could not tell two anonymous graphs apart).  A wave over
  // anonymous storage stays exact — every center is fused — and leaves the
  // cache untouched.
  ViewCache cache(policy_config(CachePolicy::Shared));
  EXPECT_EQ(cached_ball(raw, cache, 0, 2), direct_ball(inst.graph, inst.ids, 0, 2));
  BallCosts costs;
  EXPECT_FALSE(cache.serve_costs(raw, 0, 2, &costs));
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.entry_count(), 0u);
}

}  // namespace
}  // namespace volcal
