// Hybrid balanced 2½-coloring, Hybrid-THC(k) (paper Section 6,
// Definition 6.1): the hierarchy of Section 5 with the level-1 floor replaced
// by BalancedTree instances.
//
// Levels are *input labels* level(v) ∈ [k+1].  Level-1 components host
// BalancedTree: either solved (β/port outputs everywhere) or declined
// (unanimous D per component).  A level-2 node may go exempt only when the
// BalancedTree component hanging below it is solved; levels > 2 follow
// Def. 5.5 verbatim.
//
// The separation it witnesses (Thm. 6.3): distance collapses to Θ(log n)
// (BalancedTree is distance-easy) while volume stays Θ̃(n^{1/k}) randomized /
// Θ̃(n) deterministic (BalancedTree is volume-hard).
#pragma once

#include <vector>

#include "labels/hierarchy.hpp"
#include "labels/instances.hpp"
#include "lcl/problems/balanced_tree.hpp"
#include "lcl/problems/hierarchical_thc.hpp"

namespace volcal {

// A Hybrid-THC output is either a BalancedTree pair (level-1 nodes that
// solved their component) or a THC symbol (everything else; level-1 nodes
// that declined output D).
struct HybridOutput {
  bool is_bt = false;
  BtOutput bt;
  ThcColor thc = ThcColor::D;

  friend bool operator==(const HybridOutput&, const HybridOutput&) = default;

  static HybridOutput balanced(BtOutput o) { return {true, o, ThcColor::D}; }
  static HybridOutput symbol(ThcColor c) { return {false, {}, c}; }
};

// The output as the THC conditions read it: BalancedTree outputs count as D.
inline ThcColor thc_symbol(const HybridOutput& o) { return o.is_bt ? ThcColor::D : o.thc; }

// Validity of Hybrid-THC(k) (Def. 6.1) at v, with levels from `h` (built
// over `l`'s tree claims and input levels).  Shared by Hybrid-THC and the
// b = 1 side of HH-THC, whose labelings differ only in where `l` lives.
// O(1) per node: reads outputs at v's G_T neighbors and tree children only.
bool hybrid_valid_at(const Hierarchy& h, const Graph& g, const HybridLabeling& l,
                     const std::vector<HybridOutput>& out, NodeIndex v, int k);

class HybridTHCProblem {
 public:
  using InstanceType = HybridInstance;
  using Output = std::vector<HybridOutput>;

  HybridTHCProblem(const InstanceType& inst, int k);

  int k() const { return k_; }
  const Hierarchy& hierarchy() const { return hierarchy_; }

  int radius() const { return 2 * (k_ + 2); }

  bool valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const;

 private:
  int k_;
  Hierarchy hierarchy_;  // levels from input labels
};

}  // namespace volcal
