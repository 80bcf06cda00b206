// Tree labelings and their derived structure (paper Sections 3-5).
//
// A tree labeling (Def. 3.1) gives every node three port-valued labels
// P/LC/RC ("parent", "left child", "right child"), each in [Δ] ∪ {⊥}.  The
// labels are *claims*: nothing forces them to describe a real tree, and the
// constructions' power comes from classifying nodes by whether their claims
// are mutually consistent (Def. 3.3).  The consistent nodes induce the
// directed pseudo-forest G_T (Obs. 3.7), on which every problem in the paper
// is built.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace volcal {

// Input color χ_in ∈ {R, B} (Def. 3.1, "colored tree labeling").
enum class Color : std::uint8_t { Red, Blue };

inline char color_char(Color c) { return c == Color::Red ? 'R' : 'B'; }

// One stored label claim.  Every claim is a port in [Δ] ∪ {⊥} on a
// bounded-degree graph (Def. 3.1) or a level in [k+1] (Def. 6.1), so one
// byte holds any of them; solvers read claims as `Port` through the implicit
// widening.  Every path that takes a claim from outside (text reader,
// snapshot loader, label updates) rejects a value outside [0, kMaxPortLabel]
// instead of truncating it.
using PortLabel = std::uint8_t;
inline constexpr int kMaxPortLabel = 255;

inline bool fits_port_label(std::int64_t value) {
  return value >= 0 && value <= kMaxPortLabel;
}

struct TreeLabeling {
  // Port labels, kNoPort (=0) encodes ⊥.  parent[v] is P(v), etc.
  std::vector<PortLabel> parent;
  std::vector<PortLabel> left;
  std::vector<PortLabel> right;

  explicit TreeLabeling(NodeIndex n = 0)
      : parent(n, kNoPort), left(n, kNoPort), right(n, kNoPort) {}

  NodeIndex node_count() const { return static_cast<NodeIndex>(parent.size()); }
};

struct ColoredTreeLabeling {
  TreeLabeling tree;
  std::vector<Color> color;  // χ_in

  explicit ColoredTreeLabeling(NodeIndex n = 0) : tree(n), color(n, Color::Red) {}
  NodeIndex node_count() const { return tree.node_count(); }
};

// Balanced tree labeling (Def. 4.1): tree labeling + lateral neighbor claims.
struct BalancedTreeLabeling {
  TreeLabeling tree;
  std::vector<PortLabel> left_nbr;   // LN
  std::vector<PortLabel> right_nbr;  // RN

  explicit BalancedTreeLabeling(NodeIndex n = 0)
      : tree(n), left_nbr(n, kNoPort), right_nbr(n, kNoPort) {}
  NodeIndex node_count() const { return tree.node_count(); }
};

// --- Label-pointer resolution (Notation 3.2) -------------------------------
//
// Labels are ports, but it is convenient to compose them as if they named
// nodes: resolve(g, v, P(v)) is "the node v claims as parent".

inline NodeIndex resolve(const Graph& g, NodeIndex v, Port p) {
  if (p == kNoPort || v == kNoNode) return kNoNode;
  if (p < 1 || p > g.degree(v)) return kNoNode;  // dangling claim
  return g.neighbor(v, p);
}

inline NodeIndex parent_of(const Graph& g, const TreeLabeling& l, NodeIndex v) {
  return v == kNoNode ? kNoNode : resolve(g, v, l.parent[v]);
}
inline NodeIndex left_child_of(const Graph& g, const TreeLabeling& l, NodeIndex v) {
  return v == kNoNode ? kNoNode : resolve(g, v, l.left[v]);
}
inline NodeIndex right_child_of(const Graph& g, const TreeLabeling& l, NodeIndex v) {
  return v == kNoNode ? kNoNode : resolve(g, v, l.right[v]);
}

// --- Node classification (Def. 3.3) ----------------------------------------

// v is internal iff both child claims point back at v, the children are
// distinct, and the parent claim does not collide with either child claim.
bool is_internal(const Graph& g, const TreeLabeling& l, NodeIndex v);

// v is a leaf iff v is not internal but its claimed parent is internal.
bool is_leaf(const Graph& g, const TreeLabeling& l, NodeIndex v);

// consistent = internal or leaf.
bool is_consistent(const Graph& g, const TreeLabeling& l, NodeIndex v);

enum class NodeKind : std::uint8_t { Internal, Leaf, Inconsistent };
NodeKind classify(const Graph& g, const TreeLabeling& l, NodeIndex v);

// --- The directed pseudo-forest G_T (Obs. 3.7) ------------------------------
//
// Vertices: consistent nodes.  Edges: internal u -> each child v with
// u = P(v).  Every node has out-degree 0 or 2 and in-degree 0 or 1, so every
// connected component contains at most one directed cycle.

struct PseudoForest {
  // Children in G_T: kNoNode if absent.  Only internal nodes have children.
  std::vector<NodeIndex> lc;
  std::vector<NodeIndex> rc;
  // Parent in G_T: the unique internal u with an edge u -> v, else kNoNode.
  std::vector<NodeIndex> up;
  std::vector<NodeKind> kind;

  bool in_forest(NodeIndex v) const { return kind[v] != NodeKind::Inconsistent; }
  NodeIndex node_count() const { return static_cast<NodeIndex>(kind.size()); }
};

PseudoForest build_pseudo_forest(const Graph& g, const TreeLabeling& l);

// Structural audit of Obs. 3.7: every node of G_T has out-degree 0 or 2 and
// in-degree 0 or 1.  Returns the first offending node, if any (used by
// property tests; always empty for forests produced by build_pseudo_forest).
std::optional<NodeIndex> pseudo_forest_violation(const PseudoForest& f);

// Nodes of G_T lying on a directed cycle (at most one cycle per component).
std::vector<char> on_cycle_mask(const PseudoForest& f);

// Number of G_T-descendants reachable from v (counting v); the n_v quantity
// used in the random-walk analysis of Prop. 3.10.  Nodes on cycles get the
// size of the whole reachable set.
std::vector<std::int64_t> reachable_counts(const PseudoForest& f);

}  // namespace volcal
