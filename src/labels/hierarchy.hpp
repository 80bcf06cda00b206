// The hierarchical forest G_k (paper Definitions 5.1-5.2, Observations
// 5.3-5.4) derived from a tree labeling.
//
// Section 5 uses a *relaxed* link structure compared to Def. 3.3: a level-1
// backbone node legitimately has RC = ⊥ (Obs. 5.4), so "internal" in the
// strict sense never applies there.  We therefore build the forest from
// mutually-acknowledged child claims: u is v's LC-link iff u = LC(v) and
// v = P(u) (and symmetrically for RC), with LC and RC claims distinct.
//
// level(v) = 1 if v has no RC-link, else 1 + level(RC-link).  Values are
// capped at `cap` (= k+1): a stored `cap` means "level > k or undefined"
// (the RC chain cycles), which is all the problems distinguish.
//
// Backbones — maximal equal-level LC-chains — are paths or cycles; each node
// of a level-ℓ backbone (ℓ >= 2) hangs a level-(ℓ-1) subtree off its RC link.
//
// This is the *global* analysis used by generators, verifiers, and tests.
// Query-model algorithms never touch it; they recompute levels locally through
// the query engine (Obs. 5.3 guarantees they can).
#pragma once

#include <cstdint>
#include <vector>

#include "labels/tree_labeling.hpp"

namespace volcal {

class Hierarchy {
 public:
  // Build from label claims; levels computed from the RC-chain and capped.
  Hierarchy(const Graph& g, const TreeLabeling& l, int cap);

  // Build with externally supplied levels (Hybrid-THC, Def. 6.1, where
  // level(v) is an explicit one-byte input label, HybridLabeling::level_in).
  // Supplied levels are clamped to [1, cap].
  Hierarchy(const Graph& g, const TreeLabeling& l, int cap,
            const std::vector<std::uint8_t>& input_levels);

  int cap() const { return cap_; }
  NodeIndex node_count() const { return static_cast<NodeIndex>(level_.size()); }

  // Mutually-acknowledged links (kNoNode if absent).
  NodeIndex lc(NodeIndex v) const { return lc_[v]; }
  NodeIndex rc(NodeIndex v) const { return rc_[v]; }
  NodeIndex up(NodeIndex v) const { return up_[v]; }

  int level(NodeIndex v) const { return level_[v]; }
  // "In the hierarchy" = level <= k (nodes at level > k are exempt, cond. 1).
  bool in_hierarchy(NodeIndex v) const { return level_[v] < cap_; }

  // Backbone navigation (equal-level LC-chain edges of G_k).
  NodeIndex backbone_next(NodeIndex v) const;  // towards LC
  NodeIndex backbone_prev(NodeIndex v) const;  // towards P
  // The level-(ℓ-1) root hanging below a level-ℓ node via RC, or kNoNode.
  NodeIndex down(NodeIndex v) const;

  bool is_level_root(NodeIndex v) const;  // Def. 5.2: P-link absent or v = RC(P(v))
  bool is_level_leaf(NodeIndex v) const;  // Def. 5.2: LC-link absent (in G_k)

  struct Backbone {
    int level = 0;
    bool is_cycle = false;
    // nodes[i+1] = backbone_next(nodes[i]); nodes[0] is the root end of a
    // path, or an arbitrary rotation of a cycle.
    std::vector<NodeIndex> nodes;
  };
  const std::vector<Backbone>& backbones() const { return backbones_; }
  std::int64_t backbone_of(NodeIndex v) const { return backbone_of_[v]; }

  // |H_ℓ|: size of the sub-hierarchy rooted at backbone b (the backbone plus
  // all descendants at lower levels) — Definition 5.10's light/heavy weight.
  std::int64_t subtree_weight(std::int64_t backbone_id) const {
    return subtree_weight_[backbone_id];
  }
  // Weight of the sub-hierarchy hanging below v via its RC link; 0 if none.
  std::int64_t below_weight(NodeIndex v) const;

 private:
  void build_links(const Graph& g, const TreeLabeling& l);
  void compute_levels_from_rc_chain();
  void decompose_backbones();

  int cap_;
  std::vector<NodeIndex> lc_, rc_, up_;
  std::vector<int> level_;
  std::vector<Backbone> backbones_;
  std::vector<std::int64_t> backbone_of_;
  std::vector<std::int64_t> subtree_weight_;
};

}  // namespace volcal
