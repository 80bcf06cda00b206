#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "labels/generators.hpp"
#include "runtime/execution.hpp"
#include "runtime/randomness.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

Graph path_graph(NodeIndex n) {
  Graph::Builder b(n);
  for (NodeIndex i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

// ---------------------------------------------------------------------------
// Execution: the query model of Section 2.2
// ---------------------------------------------------------------------------

TEST(Execution, StartCountsAsVolumeOne) {
  Graph g = path_graph(3);
  auto ids = IdAssignment::sequential(3);
  Execution exec(g, ids, 1);
  EXPECT_EQ(exec.volume(), 1);
  EXPECT_EQ(exec.distance(), 0);
  EXPECT_TRUE(exec.visited(1));
  EXPECT_FALSE(exec.visited(0));
}

TEST(Execution, QueryRevealsNeighborAndCharges) {
  Graph g = path_graph(3);
  auto ids = IdAssignment::sequential(3);
  Execution exec(g, ids, 0);
  const NodeIndex u = exec.query(0, 1);
  EXPECT_EQ(u, 1);
  EXPECT_EQ(exec.volume(), 2);
  EXPECT_EQ(exec.distance(), 1);
  EXPECT_EQ(exec.query_count(), 1);
  EXPECT_EQ(exec.id(u), 2u);
  EXPECT_EQ(exec.degree(u), 2);
}

TEST(Execution, QueryFromUnvisitedThrows) {
  Graph g = path_graph(3);
  auto ids = IdAssignment::sequential(3);
  Execution exec(g, ids, 0);
  EXPECT_THROW(exec.query(2, 1), std::logic_error);
  EXPECT_THROW(exec.id(2), std::logic_error);
  EXPECT_THROW(exec.degree(2), std::logic_error);
}

TEST(Execution, RediscoveryIsFree) {
  Graph g = path_graph(3);
  auto ids = IdAssignment::sequential(3);
  Execution exec(g, ids, 0);
  exec.query(0, 1);
  exec.query(0, 1);
  exec.query(1, 1);  // back to 0
  EXPECT_EQ(exec.volume(), 2);
  EXPECT_EQ(exec.query_count(), 3);
}

TEST(Execution, DistanceIsMaxLayer) {
  Graph g = path_graph(5);
  auto ids = IdAssignment::sequential(5);
  Execution exec(g, ids, 0);
  NodeIndex cur = 0;
  for (int i = 0; i < 4; ++i) cur = exec.query(cur, cur == 0 ? 1 : 2);
  EXPECT_EQ(exec.distance(), 4);
  EXPECT_EQ(exec.volume(), 5);
}

TEST(Execution, BudgetEnforced) {
  Graph g = path_graph(10);
  auto ids = IdAssignment::sequential(10);
  Execution exec(g, ids, 0, /*budget=*/3);
  NodeIndex cur = exec.query(0, 1);
  cur = exec.query(cur, 2);
  EXPECT_EQ(exec.volume(), 3);
  EXPECT_THROW(exec.query(cur, 2), QueryBudgetExceeded);
  // Re-discovery stays free even at the budget edge.
  EXPECT_NO_THROW(exec.query(cur, 1));
}

TEST(Execution, ExploreBallMatchesBfsBall) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  Execution exec(inst.graph, inst.ids, 0);
  auto order = explore_ball(exec, 2);
  EXPECT_EQ(order.size(), 7u);  // root + 2 + 4
  EXPECT_EQ(exec.volume(), 7);
  EXPECT_EQ(exec.distance(), 2);
}

TEST(Execution, VisitedNodesList) {
  Graph g = path_graph(4);
  auto ids = IdAssignment::sequential(4);
  Execution exec(g, ids, 0);
  exec.query(0, 1);
  auto nodes = exec.visited_nodes();
  EXPECT_EQ(nodes.size(), 2u);
}

// Lemma 2.5 property: run ball explorations of every radius from every node
// of a bounded-degree graph and check DIST <= VOL <= Δ^DIST + 1.
TEST(Execution, Lemma25SandwichOnBalls) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  for (NodeIndex v = 0; v < inst.node_count(); v += 3) {
    for (std::int64_t r = 0; r <= 4; ++r) {
      Execution exec(inst.graph, inst.ids, v);
      explore_ball(exec, r);
      SweepResult<int> fake;
      fake.volume = {exec.volume()};
      fake.distance = {exec.distance()};
      EXPECT_TRUE(satisfies_lemma_2_5(inst.graph, fake)) << v << " r=" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomness (Section 2.2 + §7.4)
// ---------------------------------------------------------------------------

TEST(Randomness, DeterministicPerSeed) {
  auto ids = IdAssignment::sequential(10);
  RandomTape t1(ids, 42), t2(ids, 42), t3(ids, 43);
  bool differs = false;
  for (NodeIndex v = 0; v < 10; ++v) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      EXPECT_EQ(t1.bit(v, v, i), t2.bit(v, v, i));
      differs |= t1.bit(v, v, i) != t3.bit(v, v, i);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Randomness, BitsRoughlyUniform) {
  auto ids = IdAssignment::sequential(64);
  RandomTape tape(ids, 7);
  std::int64_t ones = 0;
  const std::int64_t total = 64 * 64;
  for (NodeIndex v = 0; v < 64; ++v) {
    for (std::uint64_t i = 0; i < 64; ++i) ones += tape.bit(v, v, i);
  }
  EXPECT_GT(ones, total * 2 / 5);
  EXPECT_LT(ones, total * 3 / 5);
}

TEST(Randomness, NodesIndependent) {
  auto ids = IdAssignment::sequential(4);
  RandomTape tape(ids, 9);
  // Different nodes should not share their strings.
  int same = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    same += tape.bit(0, 0, i) == tape.bit(1, 1, i);
  }
  EXPECT_NE(same, 64);
}

TEST(Randomness, PublicModelSharesTape) {
  auto ids = IdAssignment::sequential(4);
  RandomTape tape(ids, 9, RandomnessModel::Public);
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(tape.bit(0, 0, i), tape.bit(1, 1, i));
    EXPECT_EQ(tape.bit(2, 3, i), tape.bit(1, 1, i));
  }
}

TEST(Randomness, SecretModelForbidsCrossReads) {
  auto ids = IdAssignment::sequential(4);
  RandomTape tape(ids, 9, RandomnessModel::Secret);
  EXPECT_NO_THROW(tape.bit(2, 2, 0));
  EXPECT_THROW(tape.bit(1, 2, 0), std::logic_error);
}

TEST(Randomness, BitAccountingHighWater) {
  auto ids = IdAssignment::sequential(4);
  RandomTape tape(ids, 9);
  EXPECT_EQ(tape.bits_used(1), 0u);
  tape.bit(0, 1, 5);
  EXPECT_EQ(tape.bits_used(1), 6u);
  tape.bit(0, 1, 2);
  EXPECT_EQ(tape.bits_used(1), 6u);
  tape.word(0, 1, 10);
  EXPECT_EQ(tape.bits_used(1), 74u);
  EXPECT_EQ(tape.max_bits_used_anywhere(), 74u);
}

TEST(Randomness, UnitInRange) {
  auto ids = IdAssignment::sequential(8);
  RandomTape tape(ids, 13);
  for (NodeIndex v = 0; v < 8; ++v) {
    const double u = tape.unit(v, v, 0);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---------------------------------------------------------------------------
// distance(): exact on forests, bounded overestimate on pseudo-forests
// ---------------------------------------------------------------------------

// On forests paths are unique, so the max BFS layer in the explored subgraph
// equals the true Def.-2.1 distance cost once the whole tree is explored.
TEST(Execution, DistanceMatchesBfsEccentricityOnForests) {
  auto inst = make_random_full_binary_tree(101, 7);
  for (NodeIndex v = 0; v < inst.node_count(); v += 9) {
    Execution exec(inst.graph, inst.ids, v);
    explore_ball(exec, inst.node_count());
    EXPECT_EQ(exec.volume(), static_cast<std::int64_t>(inst.node_count()));
    EXPECT_EQ(exec.distance(), eccentricity(inst.graph, v)) << "at start " << v;
  }
}

// Layer tightening has no propagation (documented in execution.hpp): when a
// shorter route to an already-visited node is found later, the node's own
// layer tightens but layers derived from the old value do not.  Pin the
// resulting overestimate on a cycle so any semantic change is caught — the
// differential reference in execution_diff_test locks both implementations
// to this exact behavior.
TEST(Execution, DistanceTighteningPinnedOnCycle) {
  // C8 (0-1-...-7-0) plus a pendant node 8 hanging off node 5.
  Graph::Builder b(9);
  for (NodeIndex i = 0; i < 8; ++i) b.add_edge(i, (i + 1) % 8);
  b.add_edge(5, 8);
  Graph g = std::move(b).build();
  auto ids = IdAssignment::sequential(9);

  Execution exec(g, ids, 0);
  // Walk the long way around: 0 -> 1 -> 2 -> 3 -> 4 -> 5 (layers 1..5).
  ASSERT_EQ(exec.query(0, 1), 1);
  for (NodeIndex i = 1; i <= 4; ++i) ASSERT_EQ(exec.query(i, 2), i + 1);
  EXPECT_EQ(exec.distance(), 5);
  // Walk the short way: 0 -> 7 -> 6 -> 5; the last step rediscovers node 5
  // and tightens its layer from 5 to 3...
  ASSERT_EQ(exec.query(0, 2), 7);
  ASSERT_EQ(exec.query(7, 1), 6);
  ASSERT_EQ(exec.query(6, 1), 5);
  // ...so the pendant discovered *through* node 5 lands at layer 4, not 6,
  // and the max layer stays the stale 5 (true eccentricity of node 0 is 4).
  ASSERT_EQ(exec.query(5, 3), 8);
  EXPECT_EQ(exec.distance(), 5);
  EXPECT_EQ(eccentricity(g, 0), 4);
}

// ---------------------------------------------------------------------------
// ExecutionScratch reuse
// ---------------------------------------------------------------------------

TEST(ExecutionScratch, ReuseIsolatesConsecutiveExecutions) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  ExecutionScratch scratch;
  // A full-graph exploration must not leak visited state into the next
  // execution on the same scratch.
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    Execution exec(inst.graph, inst.ids, v, /*budget=*/0, scratch);
    EXPECT_EQ(exec.volume(), 1);
    EXPECT_EQ(exec.distance(), 0);
    for (NodeIndex u = 0; u < inst.node_count(); ++u) {
      EXPECT_EQ(exec.visited(u), u == v);
    }
    explore_ball(exec, inst.node_count());
    EXPECT_EQ(exec.volume(), static_cast<std::int64_t>(inst.node_count()));
  }
  EXPECT_EQ(scratch.capacity(), inst.node_count());  // grown once, reused
}

TEST(ExecutionScratch, GrowsAcrossGraphsAndShrinksNever) {
  auto small = make_complete_binary_tree(2, Color::Red, Color::Blue);
  auto big = make_complete_binary_tree(5, Color::Red, Color::Blue);
  ExecutionScratch scratch;
  { Execution exec(small.graph, small.ids, 0, 0, scratch); }
  EXPECT_EQ(scratch.capacity(), small.node_count());
  { Execution exec(big.graph, big.ids, 0, 0, scratch); }
  EXPECT_EQ(scratch.capacity(), big.node_count());
  {
    Execution exec(small.graph, small.ids, 3, 0, scratch);
    EXPECT_FALSE(exec.visited(0));  // stamps from the big run are stale
  }
  EXPECT_EQ(scratch.capacity(), big.node_count());
}

TEST(ExecutionScratch, RefusesGraphsBeyondItsLayerWidth) {
  // Layers are stored as int32_t; a graph whose BFS layers could exceed that
  // is refused before anything is allocated.
  ExecutionScratch scratch;
  EXPECT_THROW(scratch.reserve(NodeIndex{1} << 31), std::length_error);
  EXPECT_EQ(scratch.capacity(), 0);
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

TEST(Runner, AggregatesSupCosts) {
  auto inst = make_complete_binary_tree(3, Color::Red, Color::Blue);
  auto result = run_at_all_nodes(inst.graph, inst.ids, [](Execution& exec) {
    explore_ball(exec, 1);
    return 0;
  });
  EXPECT_EQ(result.stats.max_distance, 1);
  EXPECT_EQ(result.stats.max_volume, 4);  // internal node: self + parent + 2 children
  EXPECT_EQ(result.stats.truncated, 0);
  EXPECT_TRUE(satisfies_lemma_2_5(inst.graph, result));
}

TEST(Runner, TruncationCounted) {
  auto inst = make_complete_binary_tree(3, Color::Red, Color::Blue);
  auto result = run_at_all_nodes(
      inst.graph, inst.ids,
      [](Execution& exec) {
        explore_ball(exec, 10);  // wants the whole graph
        return 1;
      },
      /*budget=*/4);
  EXPECT_GT(result.stats.truncated, 0);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) EXPECT_LE(result.volume[v], 4);
}

}  // namespace
}  // namespace volcal
