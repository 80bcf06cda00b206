#include "lcl/problems/hierarchical_thc.hpp"

namespace volcal {

bool HierarchicalTHCProblem::valid_at(const InstanceType& inst, const Output& out,
                                      NodeIndex v) const {
  ThcValidityOptions opt;
  opt.k = k_;
  return thc_conditions_hold(
      hierarchy_, inst.labels.color, [&out](NodeIndex u) { return out[u]; }, v, opt);
}

}  // namespace volcal
