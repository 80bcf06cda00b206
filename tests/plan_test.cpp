// The probe-plan layer and its batched execution backend.
//
// Three contracts, in increasing strength:
//   * plan IR — the ProbePlan value type, its names/eligibility predicate,
//     the VOLCAL_BACKEND knob, and which plan each registry family registered
//     (ball-4 promises BatchedBall(4); everything else is IndependentStarts);
//   * executor exactness — BatchedBallExecutor reproduces explore_ball on a
//     per-start Execution meter-for-meter (volume, distance, query count),
//     including component exhaustion, duplicate centers in one batch, radius
//     0 and executor reuse across runs — also through run_cached_ball_wave,
//     whose cache hits and fused misses report the same meters;
//   * sweep equivalence — run_planned on the Batched backend is bit-identical
//     to the Basic backend for EVERY registry family under every cache policy
//     at 1 and 8 threads (outputs, per-start costs, aggregate costs), with
//     the stats tagged by the plan/backend that actually executed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "labels/generators.hpp"
#include "lcl/registry.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

// --- plan IR ---------------------------------------------------------------

TEST(ProbePlanIr, FactoriesNamesAndEligibility) {
  constexpr ProbePlan independent = ProbePlan::independent();
  constexpr ProbePlan ball = ProbePlan::batched_ball(4);
  static_assert(!independent.batchable());
  static_assert(ball.batchable());
  EXPECT_EQ(independent.kind, PlanKind::IndependentStarts);
  EXPECT_EQ(ball.kind, PlanKind::BatchedBall);
  EXPECT_EQ(ball.radius, 4);
  EXPECT_STREQ(independent.name(), "independent-starts");
  EXPECT_STREQ(ball.name(), "batched-ball");
  EXPECT_EQ(ball, ProbePlan::batched_ball(4));
  EXPECT_NE(ball, ProbePlan::batched_ball(3));
  EXPECT_NE(ball, independent);
  // A negative radius never batches, whatever the kind says.
  constexpr ProbePlan bad{PlanKind::BatchedBall, -1};
  static_assert(!bad.batchable());
}

TEST(ProbePlanIr, BackendNamesRoundTrip) {
  ExecBackend backend = ExecBackend::Batched;
  EXPECT_TRUE(backend_from_name("basic", &backend));
  EXPECT_EQ(backend, ExecBackend::Basic);
  EXPECT_TRUE(backend_from_name("batched", &backend));
  EXPECT_EQ(backend, ExecBackend::Batched);
  EXPECT_FALSE(backend_from_name("vectorized", &backend));
  EXPECT_STREQ(backend_name(ExecBackend::Basic), "basic");
  EXPECT_STREQ(backend_name(ExecBackend::Batched), "batched");
}

TEST(ProbePlanIr, BackendFromEnv) {
  // Batched is the default: the backend is bit-identical by contract, so
  // opting *out* is the explicit act.
  ::unsetenv("VOLCAL_BACKEND");
  EXPECT_EQ(backend_from_env(), ExecBackend::Batched);
  ::setenv("VOLCAL_BACKEND", "basic", 1);
  EXPECT_EQ(backend_from_env(), ExecBackend::Basic);
  ::setenv("VOLCAL_BACKEND", "batched", 1);
  EXPECT_EQ(backend_from_env(), ExecBackend::Batched);
  ::unsetenv("VOLCAL_BACKEND");
}

TEST(ProbePlanIr, RegistryPlanSelection) {
  // ball-4's solver IS explore_ball(v, 4) with the ball size as output — the
  // one family whose registration may promise BatchedBall.  Everybody else
  // runs arbitrary solver logic and must stay on IndependentStarts until
  // someone proves their probe structure.
  for (const RegistryEntry* entry : ProblemRegistry::global().match("")) {
    if (entry->name == "ball-4") {
      EXPECT_EQ(entry->plan, ProbePlan::batched_ball(4)) << entry->name;
    } else {
      EXPECT_EQ(entry->plan, ProbePlan::independent()) << entry->name;
    }
  }
}

// --- executor exactness ----------------------------------------------------

struct BallMeters {
  std::int64_t volume = 0;
  std::int64_t distance = 0;
  std::int64_t queries = 0;
};

BallMeters reference_ball(const Graph& g, const IdAssignment& ids, NodeIndex start,
                          std::int64_t radius) {
  ExecutionScratch scratch(g.node_count());
  Execution exec(g, ids, start, /*budget=*/0, scratch);
  explore_ball(exec, radius);
  return {exec.volume(), exec.distance(), exec.query_count()};
}

void expect_executor_matches(const Graph& g, const IdAssignment& ids,
                             const std::vector<NodeIndex>& centers, std::int64_t radius,
                             BatchedBallExecutor& exec) {
  exec.run({centers.data(), centers.size()}, radius);
  for (std::size_t s = 0; s < centers.size(); ++s) {
    const BallMeters ref = reference_ball(g, ids, centers[s], radius);
    EXPECT_EQ(exec.volume(s), ref.volume)
        << "slot " << s << " center " << centers[s] << " r=" << radius;
    EXPECT_EQ(exec.distance(s), ref.distance)
        << "slot " << s << " center " << centers[s] << " r=" << radius;
    EXPECT_EQ(exec.queries(s), ref.queries)
        << "slot " << s << " center " << centers[s] << " r=" << radius;
  }
}

// What one run_cached_ball_wave reported, each answer checked against the
// per-start reference meters.
struct WaveReport {
  std::vector<std::size_t> hits;   // indices into the wave's centers
  std::vector<std::size_t> fused;  // likewise, in slot order
  int fused_calls = 0;
};

WaveReport run_wave_checked(const Graph& g, const IdAssignment& ids,
                            BatchedBallExecutor& exec, ViewCache& cache,
                            const std::vector<NodeIndex>& centers, std::int64_t radius) {
  WaveReport report;
  const auto expect_exact = [&](std::size_t i, const BallCosts& costs) {
    const BallMeters ref = reference_ball(g, ids, centers[i], radius);
    EXPECT_EQ(costs.volume, ref.volume) << "center " << centers[i];
    EXPECT_EQ(costs.distance, ref.distance) << "center " << centers[i];
    EXPECT_EQ(costs.queries, ref.queries) << "center " << centers[i];
  };
  run_cached_ball_wave(
      exec, g, {centers.data(), centers.size()}, radius, &cache,
      g.view().storage_identity(),
      [&](std::size_t i, const BallCosts& costs) {
        report.hits.push_back(i);
        expect_exact(i, costs);
      },
      [&](std::span<const std::size_t> index, std::span<const BallCosts> costs) {
        ++report.fused_calls;
        for (std::size_t s = 0; s < index.size(); ++s) {
          report.fused.push_back(index[s]);
          expect_exact(index[s], costs[s]);
        }
      });
  return report;
}

TEST(BatchedBallExecutor, MatchesExploreBallMeters) {
  const auto inst = make_complete_binary_tree(7, Color::Red, Color::Blue);  // 255 nodes
  BatchedBallExecutor exec;
  exec.bind(inst.graph);
  std::vector<NodeIndex> centers;
  for (NodeIndex v = 0; v < inst.graph.node_count(); v += 5) centers.push_back(v);
  centers.resize(std::min<std::size_t>(centers.size(), BatchedBallExecutor::kMaxBatch));
  // Radius 0 (the ball is the center), interior radii, and radii deep enough
  // that every ball exhausts the tree — executor reused across runs.
  for (const std::int64_t radius : {0, 1, 4, 7, 16}) {
    expect_executor_matches(inst.graph, inst.ids, centers, radius, exec);
  }

  // The cached ball wave: a mixed wave (two warm hits, a duplicated cold
  // center, one more miss) answers every center once, exactly; repeating it
  // is an all-hit wave, which neither runs an executor nor takes the miss
  // path.
  CacheConfig cfg;
  cfg.policy = CachePolicy::Shared;
  ViewCache cache(cfg);
  cache.bind(inst.graph);
  constexpr std::int64_t kRadius = 4;
  run_wave_checked(inst.graph, inst.ids, exec, cache, {0, 10}, kRadius);
  const std::vector<NodeIndex> mixed = {10, 3, 0, 3, 200};
  const WaveReport first = run_wave_checked(inst.graph, inst.ids, exec, cache, mixed, kRadius);
  EXPECT_EQ(first.hits, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(first.fused, (std::vector<std::size_t>{1, 3, 4}));
  EXPECT_EQ(first.fused_calls, 1);
  EXPECT_EQ(cache.entry_count(), 4U);

  const CacheStats before = cache.stats();
  BatchedBallExecutor idle;
  idle.bind(inst.graph);
  const WaveReport again = run_wave_checked(inst.graph, inst.ids, idle, cache, mixed, kRadius);
  EXPECT_EQ(again.hits, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(again.fused_calls, 0);
  EXPECT_EQ(idle.waves(), 0);  // run() was never called
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.hits - before.hits, static_cast<std::int64_t>(mixed.size()));
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserted_bytes, before.inserted_bytes);
  EXPECT_EQ(cache.entry_count(), 4U);
}

TEST(BatchedBallExecutor, DuplicateCentersShareOneSlotEach) {
  const auto inst = make_complete_binary_tree(5, Color::Red, Color::Blue);
  BatchedBallExecutor exec;
  exec.bind(inst.graph);
  const std::vector<NodeIndex> centers = {0, 7, 0, 7, 3};
  expect_executor_matches(inst.graph, inst.ids, centers, 3, exec);
}

TEST(BatchedBallExecutor, CanonicalBallsInstallIntoViewCache) {
  // take_ball must hand back the per-depth summaries of canonical BFS
  // expansions: storing them and re-serving through ViewCache::serve_costs
  // reproduces the meters.
  const auto inst = make_complete_binary_tree(6, Color::Red, Color::Blue);
  BatchedBallExecutor exec;
  exec.bind(inst.graph);
  const std::vector<NodeIndex> centers = {0, 1, 30, 62};
  constexpr std::int64_t kRadius = 3;
  exec.run({centers.data(), centers.size()}, kRadius);

  CacheConfig cfg;
  cfg.policy = CachePolicy::Shared;
  ViewCache cache(cfg);
  cache.bind(inst.graph);
  std::vector<BallMeters> expected;
  for (std::size_t s = 0; s < centers.size(); ++s) {
    expected.push_back({exec.volume(s), exec.distance(s), exec.queries(s)});
    cache.store(centers[s], exec.take_ball(s), cache.epoch(),
                inst.graph.view().storage_identity());
  }
  for (std::size_t s = 0; s < centers.size(); ++s) {
    BallCosts costs;
    ASSERT_TRUE(cache.serve_costs(inst.graph, centers[s], kRadius, &costs))
        << "center " << centers[s];
    EXPECT_EQ(costs.volume, expected[s].volume);
    EXPECT_EQ(costs.distance, expected[s].distance);
    EXPECT_EQ(costs.queries, expected[s].queries);
  }
  // A deeper radius than the stored expansion is a miss, not a wrong answer.
  BallCosts costs;
  EXPECT_FALSE(cache.serve_costs(inst.graph, centers[0], kRadius + 5, &costs));
}

// --- sweep equivalence across the whole registry ---------------------------

TEST(PlannedSweep, BatchedBitIdenticalForEveryFamilyAndThreadCount) {
  for (const RegistryEntry* entry : ProblemRegistry::global().match("")) {
    const ErasedInstance inst = entry->make(200, /*seed=*/3);
    std::vector<NodeIndex> starts(static_cast<std::size_t>(inst.node_count()));
    for (NodeIndex v = 0; v < inst.node_count(); ++v) {
      starts[static_cast<std::size_t>(v)] = v;
    }
    const std::span<const NodeIndex> span(starts);
    auto solve = [&](auto& exec) { return inst.solve(exec); };

    ParallelRunner base(1);
    base.set_backend(ExecBackend::Basic);
    const auto baseline = base.run_planned(inst.graph(), inst.ids(), span, entry->plan, solve);
    EXPECT_EQ(baseline.stats.backend, ExecBackend::Basic) << entry->name;
    EXPECT_EQ(baseline.stats.plan, entry->plan.kind) << entry->name;

    for (const int threads : {1, 8}) {
      ParallelRunner runner(threads);
      runner.set_backend(ExecBackend::Batched);
      const auto run = runner.run_planned(inst.graph(), inst.ids(), span, entry->plan, solve);
      const std::string where = entry->name + " x" + std::to_string(threads);
      EXPECT_EQ(baseline.output, run.output) << where;
      EXPECT_EQ(baseline.volume, run.volume) << where;
      EXPECT_EQ(baseline.distance, run.distance) << where;
      EXPECT_EQ(baseline.queries, run.queries) << where;
      EXPECT_TRUE(same_costs(baseline.stats, run.stats)) << where;
      EXPECT_EQ(run.stats.plan, entry->plan.kind) << where;
      const ExecBackend expected_backend =
          entry->plan.batchable() ? ExecBackend::Batched : ExecBackend::Basic;
      EXPECT_EQ(run.stats.backend, expected_backend) << where;
      if (entry->plan.batchable()) {
        EXPECT_EQ(run.stats.batch.batched_starts, static_cast<std::int64_t>(starts.size()))
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace volcal
