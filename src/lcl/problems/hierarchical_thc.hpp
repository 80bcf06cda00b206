// Hierarchical 2½-coloring, Hierarchical-THC(k) (paper Section 5,
// Definition 5.5) — the Chang-Pettie-style hierarchy variant with unanimous
// (not proper) component colors and relaxed exemption (Remark 5.7).
//
// Output alphabet: {R, B, D, X} — color, color, "decline", "exempt".
// Each backbone (equal-level component of the hierarchical forest G_k) must
// be colored unanimously between exempt nodes; a node may go exempt only when
// the component hanging below it via RC certifies itself (outputs R/B/X).
//
// The separation it witnesses (Thm. 5.9): R-DIST = D-DIST = Θ(n^{1/k}),
// R-VOL = Θ̃(n^{1/k}), D-VOL = Θ̃(n).
#pragma once

#include <cstdint>
#include <vector>

#include "labels/hierarchy.hpp"
#include "labels/instances.hpp"
#include "lcl/lcl.hpp"

namespace volcal {

enum class ThcColor : std::uint8_t { R, B, D, X };

inline ThcColor to_thc(Color c) { return c == Color::Red ? ThcColor::R : ThcColor::B; }

inline char thc_char(ThcColor c) {
  switch (c) {
    case ThcColor::R: return 'R';
    case ThcColor::B: return 'B';
    case ThcColor::D: return 'D';
    case ThcColor::X: return 'X';
  }
  return '?';
}

// Shared validity core: evaluates the numbered conditions of Def. 5.5 at v
// given the hierarchy h (levels may come from the RC-chain or, for Hybrid,
// from input labels).  `k` is the problem parameter; h.cap() must be k+1.
//
// `hybrid_level2` implements Def. 6.1's replacement of 4(b) at level 2 for
// Hybrid-THC: the sub-level-1 certificate for v is then supplied by the
// caller as `level2_certified` (the BalancedTree component below v solved).
struct ThcValidityOptions {
  int k = 1;
  bool hybrid_level2 = false;     // level-2 X gated by BalancedTree output below
  bool level2_certified = false;  // v's certificate, read iff hybrid_level2 && level 2
};

class HierarchicalTHCProblem {
 public:
  using InstanceType = HierarchicalInstance;
  using Output = std::vector<ThcColor>;

  HierarchicalTHCProblem(const InstanceType& inst, int k)
      : k_(k), hierarchy_(inst.graph, inst.labels.tree, k + 1) {}

  int k() const { return k_; }
  const Hierarchy& hierarchy() const { return hierarchy_; }

  // Level computation walks the RC-chain O(k) hops and backbone membership
  // one more: radius O(k), a constant for fixed k (Obs. 5.3, Lemma 5.8).
  int radius() const { return 2 * (k_ + 2); }

  bool valid_at(const InstanceType& inst, const Output& out, NodeIndex v) const;

 private:
  int k_;
  Hierarchy hierarchy_;
};

namespace thc_detail {
inline bool is_color(ThcColor c) { return c == ThcColor::R || c == ThcColor::B; }
inline bool in_rbx(ThcColor c) { return is_color(c) || c == ThcColor::X; }
inline bool in_rbd(ThcColor c) { return is_color(c) || c == ThcColor::D; }
}  // namespace thc_detail

// The condition engine shared by Hierarchical-, Hybrid-, and HH-THC.
// `out(u)` returns u's output as a THC symbol; it is read at v, at v's
// backbone successor and at the node hanging below v via RC only, so one
// evaluation is O(1) whatever the output representation.  `chi_in` holds
// the input colors.
template <typename OutAt>
bool thc_conditions_hold(const Hierarchy& h, const std::vector<Color>& chi_in, OutAt out,
                         NodeIndex v, const ThcValidityOptions& opt) {
  using thc_detail::in_rbd;
  using thc_detail::in_rbx;
  const int k = opt.k;
  const int level = h.level(v);
  const ThcColor here = out(v);

  // Condition 1: nodes above the hierarchy are exempt.
  if (level > k) return here == ThcColor::X;

  const bool leaf = h.is_level_leaf(v);
  const NodeIndex next = h.backbone_next(v);
  const NodeIndex down = h.down(v);

  // "The component below v certifies itself": for plain THC the RC-child must
  // output R/B/X (conditions 4(b)/5(a)); Hybrid-THC overrides the level-2
  // rule with a BalancedTree-specific certificate supplied by the caller.
  auto down_certifies = [&]() {
    if (opt.hybrid_level2 && level == 2) return opt.level2_certified;
    return down != kNoNode && in_rbx(out(down));
  };

  // Condition 2: level-ℓ leaves may echo, decline, or go exempt.
  if (leaf) {
    if (here != to_thc(chi_in[v]) && here != ThcColor::D && here != ThcColor::X) {
      return false;
    }
  }

  if (level == 1) {
    // Condition 3.
    if (!in_rbd(here)) return false;                   // 3(a)
    if (!leaf && here != out(next)) return false;      // 3(b)
    return true;
  }

  // Def. 6.1 routes level 2 to condition 4 (with the modified exemption) even
  // when k = 2; plain Hierarchical-THC uses condition 4 strictly below k.
  if (level < k || (opt.hybrid_level2 && level == 2)) {
    // Condition 4 (only constrains non-leaves; leaves were handled by 2).
    if (leaf) return true;
    const ThcColor after = out(next);
    const bool case_a = here == after && in_rbd(here);
    const bool case_b = here == ThcColor::X && down_certifies();
    const bool case_c =
        (here == to_thc(chi_in[v]) || here == ThcColor::D) && after == ThcColor::X;
    return case_a || case_b || case_c;
  }

  // level == k: condition 5.
  if (!in_rbx(here)) return false;
  if (here == ThcColor::X && !down_certifies()) return false;  // 5(a)
  if (!leaf && here != ThcColor::X) {
    const ThcColor after = out(next);
    const bool via_child = after != ThcColor::X && here == after;
    const bool after_exempt = after == ThcColor::X && here == to_thc(chi_in[v]);
    if (!via_child && !after_exempt) return false;  // 5(b)
  }
  return true;
}

}  // namespace volcal
