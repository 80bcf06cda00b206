// SweepStats — the one cost-aggregate for whole-graph (or sampled) sweeps.
//
// Historically the runner's result carried four loose scalars and the bench
// layer kept its own `bench::Cost` copy of the same fields; both were folded
// into this struct in PR 5 (the deprecated aliases have since been removed).
// The sup fields are the paper's Definitions 2.1-2.2 evaluated over the
// swept start set:
//
//   max_volume   = VOL_n(A)  restricted to the starts,
//   max_distance = DIST_n(A) restricted to the starts.
//
// Every field except wall_seconds is bit-identical at any thread count (see
// parallel_runner.hpp for the determinism argument); wall_seconds is the
// engine's own measurement of the sweep.
#pragma once

#include <cstdint>

#include "plan/probe_plan.hpp"

namespace volcal {

// Ball-cost memoization policy of the query service (ServeConfig::cache,
// runtime/view_cache.hpp); sweeps always run uncached.
//   Off    — every ball wave fuses all of its centers (default);
//   Shared — one cache shared by all requests (and workers) of the service:
//            repeated centers are served from memory.
// The policy never changes any deterministic output: a served ball reports
// exactly the cost meters (volume / distance / query count, Defs. 2.1-2.2)
// its direct exploration would.
enum class CachePolicy { Off, Shared };

constexpr const char* cache_policy_name(CachePolicy p) {
  return p == CachePolicy::Shared ? "shared" : "off";
}

// View-cache counters (ViewCache::stats).  All of these describe wall-time
// amortization only: hit/eviction interleaving across concurrent waves is
// scheduling-dependent (the *outputs* stay bit-identical; only these
// bookkeeping counters vary).
struct CacheStats {
  CachePolicy policy = CachePolicy::Off;
  std::int64_t hits = 0;            // lookups served from the cache
  std::int64_t misses = 0;          // lookups whose ball was rebuilt
  std::int64_t evictions = 0;       // entries dropped to honor the byte budget
  std::int64_t served_nodes = 0;    // summed volume of the balls served
  std::int64_t inserted_bytes = 0;  // bytes of entries stored or upgraded

  // Counter delta (a long-lived cache observed over one measurement window).
  friend CacheStats operator-(CacheStats a, const CacheStats& b) {
    a.hits -= b.hits;
    a.misses -= b.misses;
    a.evictions -= b.evictions;
    a.served_nodes -= b.served_nodes;
    a.inserted_bytes -= b.inserted_bytes;
    return a;
  }
};

// Batched-backend counters for one sweep (runtime/batched_execution.hpp).
// Like wall_seconds these describe how the work was performed, not what it
// computed: batch composition follows the engine's chunking, which depends on
// the thread count, so every field here is excluded from same_costs.
struct BatchStats {
  std::int64_t batches = 0;         // multi-start BFS batches executed
  std::int64_t batched_starts = 0;  // starts that ran inside a batch
  std::int64_t waves = 0;           // BFS waves summed over batches
  std::int64_t expanded_nodes = 0;  // union-frontier nodes gathered (the CSE:
                                    // each counts one adjacency walk serving
                                    // every start of its batch)

  BatchStats& operator+=(const BatchStats& o) {
    batches += o.batches;
    batched_starts += o.batched_starts;
    waves += o.waves;
    expanded_nodes += o.expanded_nodes;
    return *this;
  }
};

struct SweepStats {
  std::int64_t starts = 0;         // executions performed
  std::int64_t max_volume = 0;     // sup volume cost (Def. 2.2)
  std::int64_t max_distance = 0;   // sup distance cost (Def. 2.1)
  std::int64_t total_queries = 0;  // query() calls summed over starts
  std::int64_t total_volume = 0;   // visited nodes summed over starts
  // Executions that blew the query budget (output = solver fallback or
  // default Label, per Remark 3.11).
  std::int64_t truncated = 0;
  double wall_seconds = 0.0;
  // How the sweep was executed (filled by ParallelRunner::run_planned; plain
  // run_at sweeps keep the defaults).  Tags and counters, not costs — all
  // excluded from same_costs: the whole point of the plan layer is that the
  // backend choice never changes a deterministic output.
  PlanKind plan = PlanKind::IndependentStarts;
  ExecBackend backend = ExecBackend::Basic;
  BatchStats batch;

  // Deterministic fields only — the comparison the engine-equivalence tests
  // and benches use (wall_seconds and the batch counters are intentionally
  // excluded).
  friend bool same_costs(const SweepStats& a, const SweepStats& b) {
    return a.starts == b.starts && a.max_volume == b.max_volume &&
           a.max_distance == b.max_distance && a.total_queries == b.total_queries &&
           a.total_volume == b.total_volume && a.truncated == b.truncated;
  }
};

}  // namespace volcal
