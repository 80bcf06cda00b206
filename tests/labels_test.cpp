#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>

#include "labels/generators.hpp"
#include "labels/hierarchy.hpp"
#include "labels/ids.hpp"
#include "labels/tree_labeling.hpp"

namespace volcal {
namespace {

// ---------------------------------------------------------------------------
// IDs
// ---------------------------------------------------------------------------

TEST(Ids, SequentialAssignsOneBased) {
  auto ids = IdAssignment::sequential(4);
  for (NodeIndex v = 0; v < 4; ++v) EXPECT_EQ(ids.id_of(v), static_cast<NodeId>(v) + 1);
}

TEST(Ids, ShuffledUniqueAndDeterministic) {
  auto a = IdAssignment::shuffled(200, 7);
  auto b = IdAssignment::shuffled(200, 7);
  auto c = IdAssignment::shuffled(200, 8);
  std::set<NodeId> seen;
  bool differs = false;
  for (NodeIndex v = 0; v < 200; ++v) {
    EXPECT_TRUE(seen.insert(a.id_of(v)).second);
    EXPECT_EQ(a.id_of(v), b.id_of(v));
    differs |= a.id_of(v) != c.id_of(v);
  }
  EXPECT_TRUE(differs);
}

TEST(Ids, DuplicateRejected) {
  EXPECT_THROW(IdAssignment({1, 2, 1}), std::invalid_argument);
}

TEST(Ids, DuplicateRejectedInDenseAndSparseIdSpaces) {
  // Small maxima are checked against a bitmap over [0, max], large ones
  // against a sorted copy; both must reject a repeat and accept distinct IDs.
  constexpr NodeId kBig = NodeId{1} << 40;
  EXPECT_THROW(IdAssignment({1, 5, 1}), std::invalid_argument);
  EXPECT_THROW(IdAssignment({1, kBig, kBig}), std::invalid_argument);
  EXPECT_NO_THROW(IdAssignment({1, 5, 2}));
  EXPECT_NO_THROW(IdAssignment({kBig, 1, kBig - 1}));
}

TEST(Ids, ShuffledWithAlphaTwoIsPinned) {
  // An ID space of n^2 is sparse enough that sampling keeps its hash set;
  // the draw sequence, and so every ID, must not depend on that choice.
  const IdAssignment ids = IdAssignment::shuffled(1000, 3, 2.0);
  ASSERT_EQ(ids.node_count(), 1000);
  std::uint64_t h = 0xcbf29ce484222325ull;
  NodeId max_id = 0;
  for (const NodeId id : ids.span()) {
    h = (h ^ id) * 0x100000001b3ull;
    max_id = std::max(max_id, id);
  }
  EXPECT_EQ(ids.id_of(0), 662837u);
  EXPECT_EQ(ids.id_of(999), 498759u);
  EXPECT_EQ(max_id, 999151u);
  EXPECT_EQ(h, 7799025135484180191ull);
}

TEST(Ids, AlphaGrowsIdSpace) {
  auto ids = IdAssignment::shuffled(100, 3, 2.0);
  bool above_n = false;
  for (NodeIndex v = 0; v < 100; ++v) above_n |= ids.id_of(v) > 100;
  EXPECT_TRUE(above_n);  // with space n^2, whp some ID exceeds n
}

// ---------------------------------------------------------------------------
// Classification (Def. 3.3) on the canonical complete tree
// ---------------------------------------------------------------------------

class CompleteTreeClassify : public ::testing::TestWithParam<int> {};

TEST_P(CompleteTreeClassify, InternalAndLeafPartitionMatchesDepth) {
  const int depth = GetParam();
  auto inst = make_complete_binary_tree(depth, Color::Red, Color::Blue);
  const NodeIndex n = inst.node_count();
  const NodeIndex first_leaf = (NodeIndex{1} << depth) - 1;
  for (NodeIndex v = 0; v < n; ++v) {
    if (v < first_leaf) {
      EXPECT_TRUE(is_internal(inst.graph, inst.labels.tree, v)) << v;
      EXPECT_FALSE(is_leaf(inst.graph, inst.labels.tree, v)) << v;
    } else {
      EXPECT_TRUE(is_leaf(inst.graph, inst.labels.tree, v)) << v;
    }
    EXPECT_TRUE(is_consistent(inst.graph, inst.labels.tree, v)) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, CompleteTreeClassify, ::testing::Values(1, 2, 3, 5, 8));

TEST(Classify, RootWithoutParentIsInternal) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Red);
  EXPECT_EQ(classify(inst.graph, inst.labels.tree, 0), NodeKind::Internal);
}

TEST(Classify, DanglingChildClaimNotInternal) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Red);
  // Claiming a left child on a port beyond the degree dangles.
  inst.labels.tree.left[0] = 7;
  EXPECT_FALSE(is_internal(inst.graph, inst.labels.tree, 0));
}

TEST(Classify, ChildNotAcknowledgingParentBreaksInternal) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Red);
  inst.labels.tree.parent[1] = kNoPort;  // node 1 = left child of root
  EXPECT_FALSE(is_internal(inst.graph, inst.labels.tree, 0));
  // Node 1 still claims children that acknowledge it: stays internal.
  EXPECT_TRUE(is_internal(inst.graph, inst.labels.tree, 1));
}

TEST(Classify, EqualChildPortsNotInternal) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Red);
  inst.labels.tree.right[0] = inst.labels.tree.left[0];
  EXPECT_FALSE(is_internal(inst.graph, inst.labels.tree, 0));
}

TEST(Classify, ParentCollidingWithChildPortNotInternal) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Red);
  inst.labels.tree.parent[1] = inst.labels.tree.left[1];  // P = LC at node 1
  EXPECT_FALSE(is_internal(inst.graph, inst.labels.tree, 1));
}

TEST(Classify, LeafRequiresInternalParent) {
  auto inst = make_complete_binary_tree(1, Color::Red, Color::Red);
  // Nodes 1, 2 are leaves of the depth-1 tree.  Breaking the root demotes
  // them to inconsistent: a leaf needs an *internal* parent.
  EXPECT_EQ(classify(inst.graph, inst.labels.tree, 1), NodeKind::Leaf);
  inst.labels.tree.left[0] = kNoPort;
  EXPECT_FALSE(is_internal(inst.graph, inst.labels.tree, 0));
  EXPECT_FALSE(is_leaf(inst.graph, inst.labels.tree, 1));
  EXPECT_EQ(classify(inst.graph, inst.labels.tree, 1), NodeKind::Inconsistent);
}

// ---------------------------------------------------------------------------
// Observation 3.7 as a property test: the pseudo-forest invariants hold for
// arbitrary (noise) labelings.
// ---------------------------------------------------------------------------

class PseudoForestProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PseudoForestProperty, DegreesAndCycles) {
  auto inst = make_noise_instance(300, 4, GetParam());
  auto f = build_pseudo_forest(inst.graph, inst.labels.tree);
  EXPECT_FALSE(pseudo_forest_violation(f).has_value());
  // Each component has at most one cycle: every on-cycle node has exactly one
  // on-cycle child (a cycle is a simple directed loop).
  auto cyc = on_cycle_mask(f);
  for (NodeIndex v = 0; v < f.node_count(); ++v) {
    if (!cyc[v]) continue;
    int cycle_children = 0;
    for (NodeIndex c : {f.lc[v], f.rc[v]}) {
      if (c != kNoNode && cyc[c]) ++cycle_children;
    }
    EXPECT_EQ(cycle_children, 1) << "cycle node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PseudoForestProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(PseudoForest, CompleteTreeHasNoCycle) {
  auto inst = make_complete_binary_tree(4, Color::Red, Color::Blue);
  auto f = build_pseudo_forest(inst.graph, inst.labels.tree);
  auto cyc = on_cycle_mask(f);
  for (NodeIndex v = 0; v < f.node_count(); ++v) EXPECT_FALSE(cyc[v]);
  auto counts = reachable_counts(f);
  EXPECT_EQ(counts[0], inst.node_count());  // root reaches everything
}

TEST(PseudoForest, CyclePseudotreeHasExactlyOneCycle) {
  auto inst = make_cycle_pseudotree(6, 2, 99);
  auto f = build_pseudo_forest(inst.graph, inst.labels.tree);
  EXPECT_FALSE(pseudo_forest_violation(f).has_value());
  auto cyc = on_cycle_mask(f);
  std::int64_t on = 0;
  for (NodeIndex v = 0; v < f.node_count(); ++v) on += cyc[v];
  EXPECT_EQ(on, 6);  // exactly the cycle nodes
  // All cycle nodes are internal (they have two acknowledged children).
  for (NodeIndex v = 0; v < 6; ++v) EXPECT_EQ(f.kind[v], NodeKind::Internal);
}

TEST(PseudoForest, ReachableCountsHalveSomewhere) {
  // Lemma 3.8 machinery: on a full binary tree, each internal node has a
  // child whose reachable count is at most half its own.
  auto inst = make_random_full_binary_tree(401, 5);
  auto f = build_pseudo_forest(inst.graph, inst.labels.tree);
  auto counts = reachable_counts(f);
  for (NodeIndex v = 0; v < f.node_count(); ++v) {
    if (f.kind[v] != NodeKind::Internal) continue;
    const std::int64_t nv = counts[v];
    const std::int64_t nl = counts[f.lc[v]];
    const std::int64_t nr = counts[f.rc[v]];
    EXPECT_EQ(nv, 1 + nl + nr);
    EXPECT_TRUE(nl <= nv / 2 || nr <= nv / 2);
  }
}

// ---------------------------------------------------------------------------
// Hierarchy (Defs. 5.1-5.2, Obs. 5.4)
// ---------------------------------------------------------------------------

struct HierParam {
  int k;
  NodeIndex backbone;
};

class HierarchyStructure : public ::testing::TestWithParam<HierParam> {};

TEST_P(HierarchyStructure, LevelsAndBackbones) {
  const auto [k, b] = GetParam();
  auto inst = make_hierarchical_instance(k, b, 17);
  Hierarchy h(inst.graph, inst.labels.tree, k + 1);
  // Every node is in the hierarchy, levels within [1, k].
  std::vector<std::int64_t> level_count(k + 2, 0);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    ASSERT_TRUE(h.in_hierarchy(v)) << v;
    ASSERT_GE(h.level(v), 1);
    ASSERT_LE(h.level(v), k);
    ++level_count[h.level(v)];
  }
  // Exactly b nodes at level k (the single top backbone).
  EXPECT_EQ(level_count[k], b);
  // Backbones are paths of length exactly b with a root at the head and a
  // leaf at the tail.
  for (const auto& bb : h.backbones()) {
    EXPECT_FALSE(bb.is_cycle);
    EXPECT_EQ(static_cast<NodeIndex>(bb.nodes.size()), b);
    EXPECT_TRUE(h.is_level_root(bb.nodes.front()));
    EXPECT_TRUE(h.is_level_leaf(bb.nodes.back()));
    for (std::size_t i = 0; i + 1 < bb.nodes.size(); ++i) {
      EXPECT_EQ(h.backbone_next(bb.nodes[i]), bb.nodes[i + 1]);
      EXPECT_EQ(h.backbone_prev(bb.nodes[i + 1]), bb.nodes[i]);
      EXPECT_EQ(h.level(bb.nodes[i]), bb.level);
    }
    // Obs. 5.4: level-1 backbone nodes have no RC link; higher levels hang a
    // level-(ℓ-1) root below every node.
    for (NodeIndex v : bb.nodes) {
      if (bb.level == 1) {
        EXPECT_EQ(h.down(v), kNoNode);
      } else {
        const NodeIndex d = h.down(v);
        ASSERT_NE(d, kNoNode);
        EXPECT_EQ(h.level(d), bb.level - 1);
        EXPECT_TRUE(h.is_level_root(d));
      }
    }
  }
  // Subtree weights: the top backbone's weight is the whole instance.
  const auto top = h.backbone_of(0);
  bool found_full = false;
  for (std::size_t i = 0; i < h.backbones().size(); ++i) {
    if (h.backbones()[i].level == k) {
      EXPECT_EQ(h.subtree_weight(static_cast<std::int64_t>(i)), inst.node_count());
      found_full = true;
    }
  }
  EXPECT_TRUE(found_full);
  (void)top;
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierarchyStructure,
                         ::testing::Values(HierParam{1, 12}, HierParam{2, 6},
                                           HierParam{2, 9}, HierParam{3, 4},
                                           HierParam{4, 3}));

TEST(Hierarchy, LensVariantSizes) {
  auto inst = make_hierarchical_instance_lens({3, 5, 2}, 4);
  // size = 2 * (1 + 5 * (1 + 3)) = 42
  EXPECT_EQ(inst.node_count(), 42);
  Hierarchy h(inst.graph, inst.labels.tree, 4);
  std::int64_t top = 0;
  for (NodeIndex v = 0; v < inst.node_count(); ++v) top += h.level(v) == 3;
  EXPECT_EQ(top, 2);
}

TEST(Hierarchy, InputLevelOverride) {
  auto inst = make_hierarchical_instance(2, 4, 3);
  std::vector<std::uint8_t> levels(inst.node_count(), 2);
  Hierarchy h(inst.graph, inst.labels.tree, 3, levels);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) EXPECT_EQ(h.level(v), 2);
}

TEST(Hierarchy, LevelCapOnRcCycle) {
  // A triangle whose RC links cycle 0 -> 1 -> 2 -> 0: the RC chain never
  // bottoms out, so levels are capped.  (A 2-cycle is impossible: P and RC
  // would have to share the one connecting edge, a port collision.)
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 1, 2);  // port 1 at i = successor, port 2 = predecessor
  b.add_edge_with_ports(1, 2, 1, 2);
  b.add_edge_with_ports(2, 0, 1, 2);
  Graph g = std::move(b).build();
  TreeLabeling l(3);
  for (NodeIndex i = 0; i < 3; ++i) {
    l.right[i] = 1;   // RC = successor
    l.parent[i] = 2;  // P = predecessor
  }
  Hierarchy h(g, l, 3);
  EXPECT_EQ(h.level(0), 3);  // capped
  EXPECT_EQ(h.level(1), 3);
  EXPECT_EQ(h.level(2), 3);
}

TEST(Hierarchy, BackboneCycleDetected) {
  // LC-linked cycle at a single level.
  const int len = 5;
  Graph::Builder b(len);
  for (int i = 0; i < len; ++i) b.add_edge_with_ports(i, (i + 1) % len, 2, 1);
  Graph g = std::move(b).build();
  TreeLabeling l(len);
  for (int i = 0; i < len; ++i) {
    l.left[i] = 2;
    l.parent[i] = 1;
  }
  Hierarchy h(g, l, 3);
  ASSERT_EQ(h.backbones().size(), 1u);
  EXPECT_TRUE(h.backbones()[0].is_cycle);
  EXPECT_EQ(h.backbones()[0].nodes.size(), static_cast<std::size_t>(len));
}

// ---------------------------------------------------------------------------
// Generator sanity
// ---------------------------------------------------------------------------

TEST(Generators, CompleteTreeShape) {
  auto inst = make_complete_binary_tree(3, Color::Red, Color::Blue);
  EXPECT_EQ(inst.node_count(), 15);
  EXPECT_EQ(inst.graph.max_degree(), 3);
  EXPECT_EQ(inst.ids.id_of(0), 1u);  // heap-order IDs, root = 1
}

TEST(Generators, RandomFullTreeIsFullBinary) {
  auto inst = make_random_full_binary_tree(201, 11);
  const auto& t = inst.labels.tree;
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    const bool has_l = t.left[v] != kNoPort;
    const bool has_r = t.right[v] != kNoPort;
    EXPECT_EQ(has_l, has_r) << v;
  }
  EXPECT_EQ(inst.node_count() % 2, 1);
}

TEST(Generators, CaterpillarEveryInternalNearLeaf) {
  auto inst = make_caterpillar(20, 2);
  auto f = build_pseudo_forest(inst.graph, inst.labels.tree);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    if (f.kind[v] != NodeKind::Internal) continue;
    bool leaf_child = false;
    for (NodeIndex c : {f.lc[v], f.rc[v]}) {
      leaf_child |= c != kNoNode && f.kind[c] == NodeKind::Leaf;
    }
    EXPECT_TRUE(leaf_child) << v;
  }
}

TEST(Generators, HybridInstanceLevels) {
  auto inst = make_hybrid_instance(3, 3, 2, 21);
  // Levels 2..3 on the backbone, 1 in the BalancedTree components.
  std::set<int> seen;
  for (NodeIndex v = 0; v < inst.node_count(); ++v) seen.insert(inst.labels.level_in[v]);
  EXPECT_EQ(seen, (std::set<int>{1, 2, 3}));
  // Each level-2 node hangs a BalancedTree root below.
  Hierarchy h(inst.graph, inst.labels.bal.tree, 4, inst.labels.level_in);
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    if (inst.labels.level_in[v] == 2) {
      const NodeIndex d = h.down(v);
      ASSERT_NE(d, kNoNode);
      EXPECT_EQ(inst.labels.level_in[d], 1);
      EXPECT_TRUE(is_internal(inst.graph, inst.labels.bal.tree, d));
    }
  }
}

TEST(Generators, HHInstanceSidesDisjoint) {
  auto inst = make_hh_instance(2, 3, 300, 5);
  // Sides must not be adjacent.
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    for (NodeIndex w : inst.graph.neighbors(v)) {
      EXPECT_EQ(inst.labels.side[v], inst.labels.side[w]);
    }
  }
}

TEST(Generators, TwoTreeGadgetShape) {
  auto gadget = make_two_tree_gadget(3, 1);
  EXPECT_EQ(gadget.u_leaves.size(), 8u);
  EXPECT_EQ(gadget.v_leaves.size(), 8u);
  EXPECT_TRUE(gadget.graph.adjacent(gadget.root_u, gadget.root_v));
}

TEST(Generators, RingShape) {
  auto ring = make_ring(10, 3);
  for (NodeIndex v = 0; v < 10; ++v) {
    EXPECT_EQ(ring.graph.degree(v), 2);
    EXPECT_EQ(ring.graph.neighbor(v, 1), (v + 1) % 10);  // successor
    EXPECT_EQ(ring.graph.neighbor(v, 2), (v + 9) % 10);  // predecessor
  }
}

}  // namespace
}  // namespace volcal
