// Instance bundles: a graph, an ID assignment, and a problem input labeling.
// These are the (G, L) pairs of the paper's Definition 2.4, specialized per
// problem family.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "labels/ids.hpp"
#include "labels/tree_labeling.hpp"

namespace volcal {

// Hybrid-THC input (Def. 6.1): colored balanced tree labeling + explicit
// level(v) ∈ [k+1] per node, stored in one byte like the port claims.
struct HybridLabeling {
  BalancedTreeLabeling bal;
  std::vector<Color> color;
  std::vector<std::uint8_t> level_in;

  explicit HybridLabeling(NodeIndex n = 0) : bal(n), color(n, Color::Red), level_in(n, 1) {}
  NodeIndex node_count() const { return bal.node_count(); }
};

// HH-THC input (Def. 6.4): Hybrid input + selector bit b_v.
struct HHLabeling {
  HybridLabeling hybrid;
  std::vector<std::uint8_t> side;  // b_v ∈ {0, 1}

  explicit HHLabeling(NodeIndex n = 0) : hybrid(n), side(n, 0) {}
  NodeIndex node_count() const { return hybrid.node_count(); }
};

template <typename Labels>
struct Instance {
  Graph graph;
  IdAssignment ids;
  Labels labels;

  NodeIndex node_count() const { return graph.node_count(); }
};

using LeafColoringInstance = Instance<ColoredTreeLabeling>;
using BalancedTreeInstance = Instance<BalancedTreeLabeling>;
using HierarchicalInstance = Instance<ColoredTreeLabeling>;
using HybridInstance = Instance<HybridLabeling>;
using HHInstance = Instance<HHLabeling>;

}  // namespace volcal
