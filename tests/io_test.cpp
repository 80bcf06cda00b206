#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <regex>
#include <sstream>
#include <string>

#include "labels/generators.hpp"
#include "lcl/algorithms/leaf_coloring_algos.hpp"
#include "lcl/algorithms/local_view.hpp"
#include "lcl/problems/balanced_tree.hpp"
#include "lcl/problems/leaf_coloring.hpp"
#include "volcal/io.hpp"
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

// Claims are stored in one byte: the reader narrows each claim field with a
// range check, so 255 loads and 256 or -1 is rejected instead of wrapping.
TEST(IoErrors, ClaimsOutsideOneByteRejected) {
  auto leaf = [](const std::string& p) {
    return "volcal-instance v1 leafcoloring\nn 1\nnode 0 id 1 p " + p +
           " lc 0 rc 0 chi R\nend\n";
  };
  auto hybrid = [](const std::string& lvl) {
    return "volcal-instance v1 hybrid\nn 1\nnode 0 id 1 p 0 lc 0 rc 0 ln 0 rn 0 chi R lvl " +
           lvl + "\nend\n";
  };
  for (const char* bad : {"256", "-1"}) {
    std::stringstream buf(leaf(bad));
    EXPECT_THROW(io::read_leafcoloring(buf), std::runtime_error) << "p " << bad;
  }
  std::stringstream bad_level(hybrid("256"));
  EXPECT_THROW(io::read_hybrid(bad_level), std::runtime_error);

  std::stringstream max_claim(leaf("255"));
  EXPECT_EQ(io::read_leafcoloring(max_claim).labels.tree.parent[0], 255);
  std::stringstream max_level(hybrid("255"));
  EXPECT_EQ(io::read_hybrid(max_level).labels.level_in[0], 255);
}

// Every family with a text form prints its claims as decimal integers (a
// one-byte claim streamed as-is would come out as a char) and reads back to
// the same text.
TEST(IoRoundTrip, EveryFamilyPrintsNumericClaims) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("volcal-io-test-" + std::to_string(::getpid()) + ".txt");
  const std::regex claim_field(" (p|lc|rc|ln|rn|lvl) (\\S+)");
  const std::regex decimal("[0-9]+");
  std::size_t families = 0;
  for (const RegistryEntry& entry : ProblemRegistry::global().entries()) {
    const ErasedInstance inst = entry.make(200, 3);
    if (!inst.has_text_format()) continue;
    ++families;
    std::ostringstream text;
    inst.save_text(text);
    std::size_t claims = 0, nonzero = 0;
    const std::string s = text.str();
    for (auto it = std::sregex_iterator(s.begin(), s.end(), claim_field);
         it != std::sregex_iterator(); ++it) {
      ++claims;
      const std::string value = (*it)[2].str();
      ASSERT_TRUE(std::regex_match(value, decimal))
          << entry.name << ": field " << (*it)[1] << " printed as '" << value << "'";
      nonzero += value != "0";
    }
    EXPECT_GE(claims, 3 * static_cast<std::size_t>(inst.node_count())) << entry.name;
    EXPECT_GT(nonzero, 0u) << entry.name;

    io::save_instance(inst, path.string(), io::InstanceFormat::text);
    const ErasedInstance back = io::load_instance(path.string());
    std::ostringstream again;
    back.save_text(again);
    EXPECT_EQ(again.str(), s) << entry.name;
  }
  std::filesystem::remove(path);
  EXPECT_EQ(families, 6u);  // every family but hh-2-3
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
