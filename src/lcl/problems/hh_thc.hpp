// Hierarchical-or-hybrid 2½-coloring, HH-THC(k, ℓ) (paper Section 6.1,
// Definition 6.4): every node carries a selector bit b_v; nodes with b = 0
// solve Hierarchical-THC(ℓ) (input levels ignored), nodes with b = 1 solve
// Hybrid-THC(k).
//
// The separation it witnesses (Thm. 6.5): DIST = Θ(n^{1/ℓ}) (driven by the
// hierarchical side), R-VOL = Θ̃(n^{1/k}) (driven by the hybrid side),
// D-VOL = Θ̃(n).
#pragma once

#include <vector>

#include "labels/hierarchy.hpp"
#include "labels/instances.hpp"
#include "lcl/problems/hybrid_thc.hpp"

namespace volcal {

class HHTHCProblem {
 public:
  using InstanceType = HHInstance;
  using Output = std::vector<HybridOutput>;  // side-0 nodes use the THC symbols

  HHTHCProblem(const InstanceType& inst, int k, int l);

  int k() const { return k_; }
  int l() const { return l_; }

  int radius() const { return 2 * (l_ + 2); }

  bool valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const;

 private:
  int k_;
  int l_;
  Hierarchy hier_side_;    // RC-chain levels, cap l+1 (b = 0)
  Hierarchy hybrid_side_;  // input levels, cap k+1 (b = 1)
};

}  // namespace volcal
