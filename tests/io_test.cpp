#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "labels/generators.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/balanced_tree.hpp"
#include "lcl/problems/leaf_coloring.hpp"
#include "volcal/runtime.hpp"

namespace volcal {
namespace {

template <typename Instance>
void expect_graphs_equal(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeIndex v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.graph.degree(v), b.graph.degree(v)) << v;
    for (Port p = 1; p <= a.graph.degree(v); ++p) {
      EXPECT_EQ(a.graph.neighbor(v, p), b.graph.neighbor(v, p)) << v << ":" << p;
    }
    EXPECT_EQ(a.ids.id_of(v), b.ids.id_of(v)) << v;
  }
}

TEST(IoRoundTrip, LeafColoring) {
  auto inst = make_random_full_binary_tree(101, 7);
  std::stringstream buf;
  io::write_instance(buf, inst);
  auto back = io::read_leafcoloring(buf);
  expect_graphs_equal(inst, back);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    EXPECT_EQ(inst.labels.tree.parent[v], back.labels.tree.parent[v]);
    EXPECT_EQ(inst.labels.tree.left[v], back.labels.tree.left[v]);
    EXPECT_EQ(inst.labels.tree.right[v], back.labels.tree.right[v]);
    EXPECT_EQ(inst.labels.color[v], back.labels.color[v]);
  }
}

TEST(IoRoundTrip, SolverAgreesOnReloadedInstance) {
  auto inst = make_complete_binary_tree(6, Color::Red, Color::Blue);
  std::stringstream buf;
  io::write_instance(buf, inst);
  auto back = io::read_leafcoloring(buf);
  auto run = [](const LeafColoringInstance& i) {
    return run_at_all_nodes(i.graph, i.ids, [&i](Execution& exec) {
      InstanceSource<ColoredTreeLabeling> src(i, exec);
      return leafcoloring_nearest_leaf(src);
    });
  };
  auto a = run(inst);
  auto b = run(back);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.max_volume, b.stats.max_volume);
}

TEST(IoRoundTrip, BalancedTree) {
  auto inst = make_unbalanced_instance(4, 2, 3);
  std::stringstream buf;
  io::write_instance(buf, inst);
  auto back = io::read_balancedtree(buf);
  expect_graphs_equal(inst, back);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    EXPECT_EQ(inst.labels.left_nbr[v], back.labels.left_nbr[v]);
    EXPECT_EQ(inst.labels.right_nbr[v], back.labels.right_nbr[v]);
    EXPECT_EQ(bt_compatible(inst.graph, inst.labels, v),
              bt_compatible(back.graph, back.labels, v))
        << v;
  }
}

TEST(IoRoundTrip, Hybrid) {
  auto inst = make_hybrid_instance(2, 4, 2, 5);
  std::stringstream buf;
  io::write_instance(buf, inst);
  auto back = io::read_hybrid(buf);
  expect_graphs_equal(inst, back);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    EXPECT_EQ(inst.labels.level_in[v], back.labels.level_in[v]);
    EXPECT_EQ(inst.labels.color[v], back.labels.color[v]);
  }
}

TEST(IoErrors, BadMagicRejected) {
  std::stringstream buf("nonsense v9 leafcoloring\nn 1\nend\n");
  EXPECT_THROW(io::read_leafcoloring(buf), std::runtime_error);
}

TEST(IoErrors, KindMismatchRejected) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  std::stringstream buf;
  io::write_instance(buf, inst);
  EXPECT_THROW(io::read_balancedtree(buf), std::runtime_error);
}

TEST(IoErrors, TruncatedStreamRejected) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  std::stringstream buf;
  io::write_instance(buf, inst);
  std::string text = buf.str();
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(io::read_leafcoloring(cut), std::runtime_error);
}

TEST(IoErrors, OutOfRangeNodeRejected) {
  std::stringstream buf(
      "volcal-instance v1 leafcoloring\nn 1\nnode 5 id 1 p 0 lc 0 rc 0 chi R\nend\n");
  EXPECT_THROW(io::read_leafcoloring(buf), std::runtime_error);
}

TEST(Dot, LeafColoringRendersAllParts) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  const std::string dot = io::to_dot(inst);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // leaves
  EXPECT_NE(dot.find("salmon"), std::string::npos);        // red internals
  EXPECT_NE(dot.find("lightblue"), std::string::npos);     // blue leaves
  EXPECT_NE(dot.find("LC"), std::string::npos);
}

TEST(Dot, MaxNodesTruncates) {
  auto inst = make_complete_binary_tree(5, Color::Red, Color::Blue);
  const std::string small = io::to_dot(inst, 3);
  EXPECT_EQ(small.find("n10 "), std::string::npos);
  EXPECT_NE(small.find("n2 "), std::string::npos);
}

TEST(Dot, BalancedTreeShowsLateralEdges) {
  auto inst = make_balanced_instance(2);
  const std::string dot = io::to_dot(inst);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace volcal
