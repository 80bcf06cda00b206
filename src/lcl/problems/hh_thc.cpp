#include "lcl/problems/hh_thc.hpp"

namespace volcal {

HHTHCProblem::HHTHCProblem(const InstanceType& inst, int k, int l)
    : k_(k),
      l_(l),
      hier_side_(inst.graph, inst.labels.hybrid.bal.tree, l + 1),
      hybrid_side_(inst.graph, inst.labels.hybrid.bal.tree, k + 1,
                   inst.labels.hybrid.level_in) {}

bool HHTHCProblem::valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const {
  if (inst.labels.side[v] == 0) {
    // Hierarchical-THC(ℓ) on the induced side-0 subgraph; our instances keep
    // the sides in disjoint components, so full-graph hierarchy links agree
    // with induced-subgraph ones.
    if (out[v].is_bt) return false;
    ThcValidityOptions opt;
    opt.k = l_;
    return thc_conditions_hold(
        hier_side_, inst.labels.hybrid.color,
        [&out](NodeIndex u) { return thc_symbol(out[u]); }, v, opt);
  }
  // Side 1: Hybrid-THC(k).
  return hybrid_valid_at(hybrid_side_, inst.graph, inst.labels.hybrid, out, v, k_);
}

}  // namespace volcal
