// BatchedExecution — the wave-synchronous multi-start BFS backend behind
// ProbePlan::BatchedBall (plan/probe_plan.hpp).
//
// A whole-graph sweep of a ball(r) family runs the *same* level-window BFS
// from every start; nearby starts re-walk the same edges once per start.
// This backend fuses up to kMaxBatch starts into one expansion that advances
// all of them level-by-level together:
//
//   * one visited bitmask word per graph node (bit b = "visited by slot b"),
//     so the freshness state of 64 concurrent executions costs 8 bytes per
//     node — what the stamp+layer scratch of a *single* per-start execution
//     costs (runtime/execution.hpp);
//   * per wave, pass 1 gathers the adjacency of every node in the *union* of
//     the slot frontiers exactly once into one contiguous buffer (the
//     probe-level common-subexpression elimination: each edge is read from
//     the CSR once per wave, however many slots' frontiers contain its
//     endpoint), and pass 2 expands each slot against that hot buffer with a
//     branch-light test-and-set inner loop.
//
// Exactness (the argument is spelled out in DESIGN.md "Probe plans and
// backends"): pass 2 iterates each slot's level-d window in that slot's own
// discovery order and scans ports in ascending order, so every slot produces
// the *canonical* BFS expansion — bit-identical discovery order, level
// windows and per-level query counts to explore_ball on a BasicExecution.
// Each slot keeps its discovery order in the executor (reused across runs)
// and its per-depth summary as a CachedBall (runtime/view_cache.hpp),
// directly insertable into a shared ViewCache; per-slot volume / distance /
// query meters are read off the slot.  Exhaustion is the executor's own
// rule: a slot whose level-d frontier is empty before the target radius is
// marked exhausted at depth d without pushing a level, and serve_costs then
// answers any radius from it.
//
// One executor per worker thread; run() reuses all capacity across batches
// (zero steady-state allocations, apart from the summaries take_ball moves
// out).  Not thread-safe — the parallel engine
// gives each worker its own instance, as it does with ExecutionScratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/view_cache.hpp"

namespace volcal {

class BatchedBallExecutor {
 public:
  // One visited-mask word = one batch; 64 starts per wave-synchronous run.
  static constexpr int kMaxBatch = 64;

  BatchedBallExecutor() = default;
  BatchedBallExecutor(const BatchedBallExecutor&) = delete;
  BatchedBallExecutor& operator=(const BatchedBallExecutor&) = delete;

  // Sizes the per-node arrays for `g` and pins the executor to it.
  void bind(GraphView g);

  // Expands N_center(radius) for every center simultaneously (1 <= size <=
  // kMaxBatch; duplicate centers are fine — slots are independent).  Requires
  // bind() first.  Results are valid until the next run()/bind().
  void run(std::span<const NodeIndex> centers, std::int64_t radius);

  // Per-slot cost meters, exactly what a BasicExecution running
  // explore_ball(center, radius) would report.
  std::int64_t volume(int slot) const {
    return static_cast<std::int64_t>(order_[static_cast<std::size_t>(slot)].size());
  }
  std::int64_t distance(int slot) const {
    return balls_[static_cast<std::size_t>(slot)].max_layer(radius_);
  }
  std::int64_t queries(int slot) const {
    return balls_[static_cast<std::size_t>(slot)].cum_queries.back();
  }

  // Moves the slot's per-depth summary out (for ViewCache::store).  The
  // slot's distance and query meters are dead afterwards; its discovery
  // order stays with the executor for the next run() to reuse.
  CachedBall take_ball(int slot) {
    return std::move(balls_[static_cast<std::size_t>(slot)]);
  }

  // Telemetry for BatchStats: waves executed and union-frontier nodes
  // gathered by the last run().
  std::int64_t waves() const { return waves_; }
  std::int64_t expanded_nodes() const { return expanded_nodes_; }

 private:
  GraphView g_{};
  bool bound_ = false;
  std::int64_t radius_ = 0;
  std::int64_t waves_ = 0;
  std::int64_t expanded_nodes_ = 0;

  // Per-node state.  visited_mask_ is reset per run via touched_ (O(union
  // ball volume), not O(n)); the gather index is reset per wave via stamps.
  std::vector<std::uint64_t> visited_mask_;
  std::vector<NodeIndex> touched_;
  std::vector<std::uint64_t> gather_stamp_;
  std::vector<std::uint32_t> gather_pos_;
  std::uint64_t stamp_ = 0;

  // This wave's union frontier: gathered adjacency of wave_nodes_[i] is
  // wave_adj_[wave_off_[i] .. wave_off_[i + 1]).
  std::vector<NodeIndex> wave_nodes_;
  std::vector<std::size_t> wave_off_;
  std::vector<NodeIndex> wave_adj_;

  // Per slot: discovery order (the ball N_center(d) is order_[0 ..
  // level_end[d])) and the per-depth summary take_ball hands out.
  std::vector<std::vector<NodeIndex>> order_;
  std::vector<CachedBall> balls_;
};

// One cached ball wave: the cache-hit / fused-miss / store-back protocol the
// query service runs per batch of at most kMaxBatch centers (sweeps call
// exec.run() directly: their starts are distinct, so every one misses).
//   * The cache epoch is read before any lookup.
//   * Each full hit is reported at once as on_hit(i, costs), i indexing
//     `centers`.
//   * The misses run as one exec.run(); on_fused(index, costs) then reports
//     them together: slot s answered centers[index[s]] with costs[s].
//   * Each fused expansion is stored under that epoch and `token`, the
//     storage identity of the graph `exec` is bound to.  store() drops it if
//     the cache was re-bound meanwhile (a hot swap), so no ball of the old
//     graph can be parked under the new binding.
// `cache` may be null (every center misses, nothing is stored).  A wave with
// no miss calls neither exec.run(), on_fused nor store().  The caller binds
// `exec` and `cache` to `g` first.
template <typename OnHit, typename OnFused>
void run_cached_ball_wave(BatchedBallExecutor& exec, GraphView g,
                          std::span<const NodeIndex> centers, std::int64_t radius,
                          ViewCache* cache, StorageToken token, OnHit&& on_hit,
                          OnFused&& on_fused) {
  const std::uint64_t epoch = cache != nullptr ? cache->epoch() : 0;
  NodeIndex fused[BatchedBallExecutor::kMaxBatch];
  std::size_t index[BatchedBallExecutor::kMaxBatch];
  std::size_t b = 0;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    BallCosts costs;
    if (cache != nullptr && cache->serve_costs(g, centers[i], radius, &costs)) {
      on_hit(i, costs);
      continue;
    }
    fused[b] = centers[i];
    index[b] = i;
    ++b;
  }
  if (b == 0) return;
  exec.run({fused, b}, radius);
  BallCosts costs[BatchedBallExecutor::kMaxBatch];
  for (std::size_t s = 0; s < b; ++s) {
    const int slot = static_cast<int>(s);
    costs[s] = {exec.volume(slot), exec.distance(slot), exec.queries(slot)};
  }
  on_fused(std::span<const std::size_t>(index, b), std::span<const BallCosts>(costs, b));
  if (cache != nullptr) {
    for (std::size_t s = 0; s < b; ++s) {
      cache->store(fused[s], exec.take_ball(static_cast<int>(s)), epoch, token);
    }
  }
}

}  // namespace volcal
