#include "labels/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "labels/hierarchy.hpp"

#include "util/hash.hpp"

namespace volcal {
namespace {

Color random_color(std::uint64_t seed, std::uint64_t salt, std::uint64_t v, double p_red) {
  return to_unit_double(mix64(seed, salt, v)) < p_red ? Color::Red : Color::Blue;
}

// Copy all edges (with ports) of `src` into `builder`, offsetting node
// indices by `offset`.
void append_graph(Graph::Builder& builder, const Graph& src, NodeIndex offset) {
  for (NodeIndex v = 0; v < src.node_count(); ++v) {
    auto nbrs = src.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeIndex w = nbrs[i];
      if (v < w) {
        const Port pv = static_cast<Port>(i + 1);
        const Port pw = src.port_to(w, v);
        builder.add_edge_with_ports(v + offset, w + offset, pv, pw);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Section 3 workloads
// ---------------------------------------------------------------------------

LeafColoringInstance make_complete_binary_tree(int depth, Color internal_color,
                                               Color leaf_color) {
  if (depth < 1) throw std::invalid_argument("make_complete_binary_tree: depth >= 1");
  const NodeIndex n = (NodeIndex{1} << (depth + 1)) - 1;
  Graph::Builder builder(n);
  ColoredTreeLabeling labels(n);
  const NodeIndex first_leaf = (NodeIndex{1} << depth) - 1;
  for (NodeIndex v = 0; v < first_leaf; ++v) {
    const NodeIndex lc = 2 * v + 1;
    const NodeIndex rc = 2 * v + 2;
    // Canonical ports of Prop. 3.12: parent on port 1; children on ports 2/3
    // (1/2 at the root, which has no parent edge).
    const Port lport = (v == 0) ? 1 : 2;
    builder.add_edge_with_ports(v, lc, lport, 1);
    builder.add_edge_with_ports(v, rc, lport + 1, 1);
    labels.tree.left[v] = lport;
    labels.tree.right[v] = lport + 1;
  }
  for (NodeIndex v = 1; v < n; ++v) labels.tree.parent[v] = 1;
  for (NodeIndex v = 0; v < n; ++v) {
    labels.color[v] = (v < first_leaf) ? internal_color : leaf_color;
  }
  return {std::move(builder).build(), IdAssignment::sequential(n), std::move(labels)};
}

LeafColoringInstance make_random_full_binary_tree(NodeIndex n_target, std::uint64_t seed,
                                                  double p_red) {
  // A full binary tree has an odd node count: n = 2m+1 with m internal nodes.
  NodeIndex n = std::max<NodeIndex>(3, n_target);
  if (n % 2 == 0) ++n;
  Graph::Builder builder(n);
  ColoredTreeLabeling labels(n);
  NodeIndex next_free = 1;
  // Each frame: (node, size of the subtree rooted there — odd).
  struct Frame {
    NodeIndex node;
    NodeIndex size;
  };
  std::vector<Frame> stack{{0, n}};
  std::uint64_t draw = 0;
  while (!stack.empty()) {
    auto [v, size] = stack.back();
    stack.pop_back();
    if (size == 1) continue;  // leaf
    // Random odd split: left gets 1, 3, ..., size-2.
    const NodeIndex options = (size - 1) / 2;  // number of odd values below size-1
    const NodeIndex pick = static_cast<NodeIndex>(mix64(seed, 0xf001, draw++) %
                                                  static_cast<std::uint64_t>(options));
    const NodeIndex left_size = 2 * pick + 1;
    const NodeIndex right_size = size - 1 - left_size;
    const NodeIndex lc = next_free++;
    const NodeIndex rc = next_free++;
    const Port lport = (v == 0) ? 1 : 2;
    builder.add_edge_with_ports(v, lc, lport, 1);
    builder.add_edge_with_ports(v, rc, lport + 1, 1);
    labels.tree.left[v] = lport;
    labels.tree.right[v] = lport + 1;
    labels.tree.parent[lc] = 1;
    labels.tree.parent[rc] = 1;
    stack.push_back({lc, left_size});
    stack.push_back({rc, right_size});
  }
  for (NodeIndex v = 0; v < n; ++v) {
    labels.color[v] = random_color(seed, 0xc001, static_cast<std::uint64_t>(v), p_red);
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x1d)),
          std::move(labels)};
}

LeafColoringInstance make_cycle_pseudotree(int cycle_len, int hang_depth, std::uint64_t seed) {
  if (cycle_len < 3) throw std::invalid_argument("make_cycle_pseudotree: cycle_len >= 3");
  if (hang_depth < 1) throw std::invalid_argument("make_cycle_pseudotree: hang_depth >= 1");
  const NodeIndex hang_size = (NodeIndex{1} << (hang_depth + 1)) - 1;
  const NodeIndex n = cycle_len + static_cast<NodeIndex>(cycle_len) * hang_size;
  Graph::Builder builder(n);
  ColoredTreeLabeling labels(n);
  // Cycle nodes 0..cycle_len-1; ports: 1 = predecessor (P), 2 = successor
  // (LC), 3 = hanging subtree root (RC).
  for (NodeIndex i = 0; i < cycle_len; ++i) {
    const NodeIndex next = (i + 1) % cycle_len;
    builder.add_edge_with_ports(i, next, 2, 1);
    labels.tree.left[i] = 2;
    labels.tree.parent[next] = 1;
    labels.tree.right[i] = 3;
  }
  // Hanging complete subtrees: node layout h_i block starts at
  // cycle_len + i * hang_size, heap-indexed within the block.
  for (NodeIndex i = 0; i < cycle_len; ++i) {
    const NodeIndex base = cycle_len + i * hang_size;
    builder.add_edge_with_ports(i, base, 3, 1);
    labels.tree.parent[base] = 1;
    const NodeIndex first_leaf_local = (NodeIndex{1} << hang_depth) - 1;
    for (NodeIndex local = 0; local < first_leaf_local; ++local) {
      const NodeIndex v = base + local;
      const NodeIndex lc = base + 2 * local + 1;
      const NodeIndex rc = base + 2 * local + 2;
      builder.add_edge_with_ports(v, lc, 2, 1);
      builder.add_edge_with_ports(v, rc, 3, 1);
      labels.tree.left[v] = 2;
      labels.tree.right[v] = 3;
      labels.tree.parent[lc] = 1;
      labels.tree.parent[rc] = 1;
    }
  }
  for (NodeIndex v = 0; v < n; ++v) {
    labels.color[v] = random_color(seed, 0xcafe, static_cast<std::uint64_t>(v), 0.5);
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x2d)),
          std::move(labels)};
}

LeafColoringInstance make_caterpillar(NodeIndex spine_len, std::uint64_t seed) {
  if (spine_len < 2) throw std::invalid_argument("make_caterpillar: spine_len >= 2");
  // Spine nodes 0..m-1; each spine node i < m-1 has LC = spine i+1 and
  // RC = a private leaf; the last spine node has two private leaves.
  const NodeIndex m = spine_len;
  const NodeIndex n = m + (m - 1) + 2;  // spine + side leaves + two final leaves
  Graph::Builder builder(n);
  ColoredTreeLabeling labels(n);
  NodeIndex next_free = m;
  for (NodeIndex i = 0; i < m; ++i) {
    const Port base = (i == 0) ? 1 : 2;
    if (i + 1 < m) {
      builder.add_edge_with_ports(i, i + 1, base, 1);
      labels.tree.left[i] = base;
      labels.tree.parent[i + 1] = 1;
      const NodeIndex leaf = next_free++;
      builder.add_edge_with_ports(i, leaf, base + 1, 1);
      labels.tree.right[i] = base + 1;
      labels.tree.parent[leaf] = 1;
    } else {
      for (int c = 0; c < 2; ++c) {
        const NodeIndex leaf = next_free++;
        builder.add_edge_with_ports(i, leaf, base + c, 1);
        labels.tree.parent[leaf] = 1;
        (c == 0 ? labels.tree.left[i] : labels.tree.right[i]) = base + c;
      }
    }
  }
  for (NodeIndex v = 0; v < n; ++v) {
    labels.color[v] = random_color(seed, 0xca7, static_cast<std::uint64_t>(v), 0.5);
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x3d)),
          std::move(labels)};
}

LeafColoringInstance make_noise_instance(NodeIndex n, int max_degree, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("make_noise_instance: n >= 2");
  if (max_degree > kMaxPortLabel) {
    throw std::invalid_argument("make_noise_instance: max_degree > 255 overflows a claim");
  }
  Graph::Builder builder(n);
  std::vector<int> degree(n, 0);
  // Random matching attempts; gives a bounded-degree graph, not necessarily
  // connected — classification must cope with anything.
  const std::int64_t attempts = 3 * n;
  std::vector<std::vector<NodeIndex>> adj(n);
  for (std::int64_t t = 0; t < attempts; ++t) {
    const NodeIndex a = static_cast<NodeIndex>(mix64(seed, 0xa0, t) % n);
    const NodeIndex b = static_cast<NodeIndex>(mix64(seed, 0xb0, t) % n);
    if (a == b || degree[a] >= max_degree || degree[b] >= max_degree) continue;
    if (std::find(adj[a].begin(), adj[a].end(), b) != adj[a].end()) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
    builder.add_edge(a, b);
    ++degree[a];
    ++degree[b];
  }
  ColoredTreeLabeling labels(n);
  for (NodeIndex v = 0; v < n; ++v) {
    // Arbitrary port claims in [0, max_degree]; dangling values are legal
    // input and resolve to ⊥.
    labels.tree.parent[v] = static_cast<PortLabel>(mix64(seed, 0x11, v) % (max_degree + 1));
    labels.tree.left[v] = static_cast<PortLabel>(mix64(seed, 0x12, v) % (max_degree + 1));
    labels.tree.right[v] = static_cast<PortLabel>(mix64(seed, 0x13, v) % (max_degree + 1));
    labels.color[v] = random_color(seed, 0x14, static_cast<std::uint64_t>(v), 0.5);
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x4d)),
          std::move(labels)};
}

// ---------------------------------------------------------------------------
// Section 4 workloads
// ---------------------------------------------------------------------------

namespace {

// Shared skeleton: complete binary tree of `depth` with lateral edges between
// consecutive same-depth nodes.  Fills tree + lateral labels; returns the
// recorded lateral ports so callers can override leaf-level claims.
struct BalancedSkeleton {
  Graph graph;
  BalancedTreeLabeling labels;
  std::vector<Port> lateral_left_port;   // port of the edge to the left peer
  std::vector<Port> lateral_right_port;  // port of the edge to the right peer
};

BalancedSkeleton make_balanced_skeleton(int depth) {
  if (depth < 1) throw std::invalid_argument("balanced skeleton: depth >= 1");
  const NodeIndex n = (NodeIndex{1} << (depth + 1)) - 1;
  Graph::Builder builder(n);
  BalancedTreeLabeling labels(n);
  std::vector<Port> next_port(n, 1);
  const NodeIndex first_leaf = (NodeIndex{1} << depth) - 1;
  // Tree edges, heap order; parent edge first at every child.
  for (NodeIndex v = 0; v < first_leaf; ++v) {
    for (int c = 0; c < 2; ++c) {
      const NodeIndex child = 2 * v + 1 + c;
      const Port pv = next_port[v]++;
      const Port pc = next_port[child]++;
      builder.add_edge_with_ports(v, child, pv, pc);
      (c == 0 ? labels.tree.left[v] : labels.tree.right[v]) = pv;
      labels.tree.parent[child] = pc;
    }
  }
  // Lateral edges: consecutive nodes at every depth d >= 1, left to right.
  std::vector<Port> lat_l(n, kNoPort), lat_r(n, kNoPort);
  for (int d = 1; d <= depth; ++d) {
    const NodeIndex lo = (NodeIndex{1} << d) - 1;
    const NodeIndex hi = (NodeIndex{1} << (d + 1)) - 1;
    for (NodeIndex v = lo; v + 1 < hi; ++v) {
      const Port pv = next_port[v]++;
      const Port pw = next_port[v + 1]++;
      builder.add_edge_with_ports(v, v + 1, pv, pw);
      lat_r[v] = pv;
      lat_l[v + 1] = pw;
    }
  }
  for (NodeIndex v = 0; v < n; ++v) {
    labels.left_nbr[v] = lat_l[v];
    labels.right_nbr[v] = lat_r[v];
  }
  return {std::move(builder).build(), std::move(labels), std::move(lat_l), std::move(lat_r)};
}

}  // namespace

BalancedTreeInstance make_balanced_instance(int depth) {
  auto skeleton = make_balanced_skeleton(depth);
  const NodeIndex n = skeleton.graph.node_count();
  return {std::move(skeleton.graph), IdAssignment::sequential(n), std::move(skeleton.labels)};
}

BalancedTreeInstance make_unbalanced_instance(int depth, int defect_depth, std::uint64_t seed) {
  if (depth < 2) throw std::invalid_argument("make_unbalanced_instance: depth >= 2");
  if (defect_depth < 1 || defect_depth >= depth) {
    throw std::invalid_argument("make_unbalanced_instance: 1 <= defect_depth < depth");
  }
  auto skeleton = make_balanced_skeleton(depth);
  const NodeIndex lo = (NodeIndex{1} << defect_depth) - 1;
  const NodeIndex hi = (NodeIndex{1} << (defect_depth + 1)) - 1;
  const NodeIndex y = lo + static_cast<NodeIndex>(mix64(seed, 0xdef) %
                                                  static_cast<std::uint64_t>(hi - lo));
  // Turn y into a (premature) leaf: the branch below it ends depth -
  // defect_depth levels short, so y's lateral peers see a leaf where an
  // internal node should be (Def. 4.2 type-preserving / leaves conditions
  // fail around y) and everything below y goes inconsistent.
  skeleton.labels.tree.left[y] = kNoPort;
  skeleton.labels.tree.right[y] = kNoPort;
  const NodeIndex n = skeleton.graph.node_count();
  return {std::move(skeleton.graph), IdAssignment::sequential(n), std::move(skeleton.labels)};
}

DisjInstance make_disj_embedding(int depth, const std::vector<std::uint8_t>& a,
                                 const std::vector<std::uint8_t>& b) {
  if (depth < 2) throw std::invalid_argument("make_disj_embedding: depth >= 2");
  const NodeIndex big_n = NodeIndex{1} << (depth - 1);  // N = 2^(k-1)
  if (static_cast<NodeIndex>(a.size()) != big_n || static_cast<NodeIndex>(b.size()) != big_n) {
    throw std::invalid_argument("make_disj_embedding: |a| = |b| = 2^(depth-1) required");
  }
  auto skeleton = make_balanced_skeleton(depth);
  DisjInstance out;
  out.root = 0;
  const NodeIndex v_lo = (NodeIndex{1} << (depth - 1)) - 1;
  for (NodeIndex i = 0; i < big_n; ++i) {
    const NodeIndex vi = v_lo + i;
    out.v.push_back(vi);
    out.u.push_back(2 * vi + 1);
    out.w.push_back(2 * vi + 2);
  }
  // Leaf-level lateral claims: the sibling link u_i <-> w_i is dropped
  // exactly when a_i = b_i = 1 (the graph edge stays; only the labels
  // change, so each claim depends on (a_i, b_i) alone — Prop. 4.9).
  for (NodeIndex i = 0; i < big_n; ++i) {
    if (a[i] && b[i]) {
      skeleton.labels.right_nbr[out.u[i]] = kNoPort;
      skeleton.labels.left_nbr[out.w[i]] = kNoPort;
    }
  }
  const NodeIndex n = skeleton.graph.node_count();
  out.instance = {std::move(skeleton.graph), IdAssignment::sequential(n),
                  std::move(skeleton.labels)};
  return out;
}

// ---------------------------------------------------------------------------
// Section 5 workloads
// ---------------------------------------------------------------------------

namespace {

// Counts nodes of the recursive backbone construction so graphs can be
// allocated up front: size(1) = lens[0]; size(ℓ) = lens[ℓ-1] * (1 + size(ℓ-1)).
NodeIndex hierarchy_size(const std::vector<NodeIndex>& lens, int level) {
  NodeIndex s = lens[0];
  for (int l = 2; l <= level; ++l) s = lens[l - 1] * (1 + s);
  return s;
}

// Emits the component rooted at a fresh backbone of level `lvl`, wiring the
// first backbone node to `parent` via the parent's RC claim when parent is
// given.  Returns the index of the backbone root.
struct HierBuild {
  Graph::Builder* builder;
  TreeLabeling* labels;
  std::vector<Port>* next_port;
  NodeIndex next_free = 0;
};

NodeIndex emit_component(HierBuild& hb, const std::vector<NodeIndex>& lens, int lvl,
                         NodeIndex parent) {
  struct Item {
    int level;
    NodeIndex parent;  // node whose RC claim points at this component's root
  };
  std::vector<Item> work{{lvl, parent}};
  NodeIndex root_of_first = kNoNode;
  while (!work.empty()) {
    auto [level, up] = work.back();
    work.pop_back();
    const NodeIndex len = lens[level - 1];
    NodeIndex prev = kNoNode;
    for (NodeIndex i = 0; i < len; ++i) {
      const NodeIndex v = hb.next_free++;
      if (i == 0) {
        if (root_of_first == kNoNode) root_of_first = v;
        if (up != kNoNode) {
          const Port pu = (*hb.next_port)[up]++;
          const Port pv = (*hb.next_port)[v]++;
          hb.builder->add_edge_with_ports(up, v, pu, pv);
          hb.labels->right[up] = pu;  // component hangs off RC (Def. 5.1)
          hb.labels->parent[v] = pv;
        }
      } else {
        const Port pp = (*hb.next_port)[prev]++;
        const Port pv = (*hb.next_port)[v]++;
        hb.builder->add_edge_with_ports(prev, v, pp, pv);
        hb.labels->left[prev] = pp;  // backbone edge (same level, via LC)
        hb.labels->parent[v] = pv;
      }
      if (level >= 2) work.push_back({level - 1, v});
      prev = v;
    }
  }
  return root_of_first;
}

}  // namespace

HierarchicalInstance make_hierarchical_instance_lens(const std::vector<NodeIndex>& lens,
                                                     std::uint64_t seed) {
  if (lens.empty()) throw std::invalid_argument("hierarchical: lens non-empty");
  for (NodeIndex len : lens) {
    if (len < 1) throw std::invalid_argument("hierarchical: backbone lengths >= 1");
  }
  const int k = static_cast<int>(lens.size());
  const NodeIndex n = hierarchy_size(lens, k);
  Graph::Builder builder(n);
  ColoredTreeLabeling labels(n);
  std::vector<Port> next_port(n, 1);
  HierBuild hb{&builder, &labels.tree, &next_port, 0};
  emit_component(hb, lens, k, kNoNode);
  if (hb.next_free != n) throw std::logic_error("hierarchical: size accounting mismatch");
  for (NodeIndex v = 0; v < n; ++v) {
    labels.color[v] = random_color(seed, 0x51ea, static_cast<std::uint64_t>(v), 0.5);
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x5d)),
          std::move(labels)};
}

HierarchicalInstance make_hierarchical_instance(int k, NodeIndex backbone_len,
                                                std::uint64_t seed) {
  if (k < 1) throw std::invalid_argument("hierarchical: k >= 1");
  return make_hierarchical_instance_lens(std::vector<NodeIndex>(k, backbone_len), seed);
}

HierarchicalInstance make_hierarchical_cycle_instance(int k, NodeIndex cycle_len,
                                                      NodeIndex backbone_len,
                                                      std::uint64_t seed) {
  if (k < 2) throw std::invalid_argument("hierarchical cycle: k >= 2");
  if (cycle_len < 3) throw std::invalid_argument("hierarchical cycle: cycle_len >= 3");
  const std::vector<NodeIndex> lens(static_cast<std::size_t>(k - 1), backbone_len);
  const NodeIndex sub = hierarchy_size(lens, k - 1);
  const NodeIndex n = cycle_len + cycle_len * sub;
  Graph::Builder builder(n);
  ColoredTreeLabeling labels(n);
  std::vector<Port> next_port(n, 1);
  // Cycle nodes 0..cycle_len-1: port 1 = predecessor (P), 2 = successor (LC),
  // 3 = hanging component root (RC).
  for (NodeIndex i = 0; i < cycle_len; ++i) {
    const NodeIndex nxt = (i + 1) % cycle_len;
    builder.add_edge_with_ports(i, nxt, 2, 1);
    labels.tree.left[i] = 2;
    labels.tree.parent[nxt] = 1;
    labels.tree.right[i] = 3;
    next_port[i] = 4;  // cycle ports 1..3 are spoken for
  }
  HierBuild hb{&builder, &labels.tree, &next_port, cycle_len};
  for (NodeIndex i = 0; i < cycle_len; ++i) {
    const NodeIndex root = emit_component(hb, lens, k - 1, kNoNode);
    // Wire the hanging root to cycle node i by hand: emit_component was asked
    // for a rootless component, so attach via the reserved port 3.
    const Port proot = next_port[root]++;
    builder.add_edge_with_ports(i, root, 3, proot);
    labels.tree.parent[root] = proot;
  }
  if (hb.next_free != n) throw std::logic_error("hierarchical cycle: size mismatch");
  for (NodeIndex v = 0; v < n; ++v) {
    labels.color[v] = random_color(seed, 0xc1c1e, static_cast<std::uint64_t>(v), 0.5);
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x8d)),
          std::move(labels)};
}

// ---------------------------------------------------------------------------
// Section 6 workloads
// ---------------------------------------------------------------------------

HybridInstance make_hybrid_instance(int k, NodeIndex backbone_len, int bt_depth,
                                    std::uint64_t seed) {
  if (k < 2) throw std::invalid_argument("hybrid: k >= 2");
  if (backbone_len < 1 || bt_depth < 1) throw std::invalid_argument("hybrid: sizes >= 1");
  // Backbone skeleton for levels 2..k: reuse the hierarchical emitter with
  // k-1 backbone levels, then hang a BalancedTree component under every
  // bottom-level (construction level 1 == problem level 2) node.
  const std::vector<NodeIndex> lens(static_cast<std::size_t>(k - 1), backbone_len);
  const NodeIndex backbone_n = hierarchy_size(lens, k - 1);
  const NodeIndex bt_size = (NodeIndex{1} << (bt_depth + 1)) - 1;

  // First materialize the backbone graph + labels.
  Graph::Builder bb_builder(backbone_n);
  TreeLabeling bb_tree(backbone_n);
  std::vector<Port> bb_next_port(backbone_n, 1);
  HierBuild hb{&bb_builder, &bb_tree, &bb_next_port, 0};
  emit_component(hb, lens, k - 1, kNoNode);
  Graph bb_graph = std::move(bb_builder).build();

  // Bottom-level backbone nodes are those with no RC claim yet (construction
  // level 1); each will adopt a BalancedTree component root as RC child.
  std::vector<NodeIndex> bottom;
  for (NodeIndex v = 0; v < backbone_n; ++v) {
    if (bb_tree.right[v] == kNoPort) bottom.push_back(v);
  }

  auto bt_proto = make_balanced_skeleton(bt_depth);
  const NodeIndex n = backbone_n + static_cast<NodeIndex>(bottom.size()) * bt_size;
  Graph::Builder builder(n);
  append_graph(builder, bb_graph, 0);
  HybridLabeling labels(n);
  // Backbone labels carry over; input levels are construction level + 1.
  {
    Hierarchy bh(bb_graph, bb_tree, k + 1);
    for (NodeIndex v = 0; v < backbone_n; ++v) {
      labels.bal.tree.parent[v] = bb_tree.parent[v];
      labels.bal.tree.left[v] = bb_tree.left[v];
      labels.bal.tree.right[v] = bb_tree.right[v];
      labels.level_in[v] = std::min(bh.level(v) + 1, k + 1);
    }
  }
  NodeIndex base = backbone_n;
  for (NodeIndex host : bottom) {
    append_graph(builder, bt_proto.graph, base);
    for (NodeIndex local = 0; local < bt_size; ++local) {
      const NodeIndex v = base + local;
      labels.bal.tree.parent[v] = bt_proto.labels.tree.parent[local];
      labels.bal.tree.left[v] = bt_proto.labels.tree.left[local];
      labels.bal.tree.right[v] = bt_proto.labels.tree.right[local];
      labels.bal.left_nbr[v] = bt_proto.labels.left_nbr[local];
      labels.bal.right_nbr[v] = bt_proto.labels.right_nbr[local];
      labels.level_in[v] = 1;
    }
    // Attach: host's RC claim -> component root; root's parent claim -> host.
    // Next free port = degree in the source graph + 1 (each gains one edge).
    const NodeIndex root = base;
    const Port host_port = static_cast<Port>(bb_graph.degree(host) + 1);
    const Port root_port = static_cast<Port>(bt_proto.graph.degree(0) + 1);
    builder.add_edge_with_ports(host, root, host_port, root_port);
    labels.bal.tree.right[host] = host_port;
    labels.bal.tree.parent[root] = root_port;
    base += bt_size;
  }
  for (NodeIndex v = 0; v < n; ++v) {
    labels.color[v] = random_color(seed, 0x6b1d, static_cast<std::uint64_t>(v), 0.5);
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x6d)),
          std::move(labels)};
}

HHInstance make_hh_instance(int k, int l, NodeIndex n_half_target, std::uint64_t seed) {
  if (k < 2 || l < k) throw std::invalid_argument("hh: require 2 <= k <= l");
  // Side 0: Hierarchical-THC(l) with backbones ~ n^(1/l).
  const auto bl = std::max<NodeIndex>(
      2, static_cast<NodeIndex>(std::llround(std::pow(static_cast<double>(n_half_target),
                                                      1.0 / static_cast<double>(l)))));
  auto hier = make_hierarchical_instance(l, bl, mix64(seed, 0x70));
  // Side 1: Hybrid-THC(k) with backbone and component sizes ~ n^(1/k).
  const auto bk = std::max<NodeIndex>(
      2, static_cast<NodeIndex>(std::llround(std::pow(static_cast<double>(n_half_target),
                                                      1.0 / static_cast<double>(k)))));
  const int bt_depth = std::max(1, static_cast<int>(std::floor(std::log2(bk + 1.0)) - 1));
  auto hybrid = make_hybrid_instance(k, bk, bt_depth, mix64(seed, 0x71));

  const NodeIndex n0 = hier.node_count();
  const NodeIndex n1 = hybrid.node_count();
  const NodeIndex n = n0 + n1;
  Graph::Builder builder(n);
  append_graph(builder, hier.graph, 0);
  append_graph(builder, hybrid.graph, n0);
  HHLabeling labels(n);
  for (NodeIndex v = 0; v < n0; ++v) {
    labels.hybrid.bal.tree.parent[v] = hier.labels.tree.parent[v];
    labels.hybrid.bal.tree.left[v] = hier.labels.tree.left[v];
    labels.hybrid.bal.tree.right[v] = hier.labels.tree.right[v];
    labels.hybrid.color[v] = hier.labels.color[v];
    labels.hybrid.level_in[v] = 1;  // ignored on side 0 (Def. 6.4)
    labels.side[v] = 0;
  }
  for (NodeIndex v = 0; v < n1; ++v) {
    const NodeIndex t = n0 + v;
    labels.hybrid.bal.tree.parent[t] = hybrid.labels.bal.tree.parent[v];
    labels.hybrid.bal.tree.left[t] = hybrid.labels.bal.tree.left[v];
    labels.hybrid.bal.tree.right[t] = hybrid.labels.bal.tree.right[v];
    labels.hybrid.bal.left_nbr[t] = hybrid.labels.bal.left_nbr[v];
    labels.hybrid.bal.right_nbr[t] = hybrid.labels.bal.right_nbr[v];
    labels.hybrid.color[t] = hybrid.labels.color[v];
    labels.hybrid.level_in[t] = hybrid.labels.level_in[v];
    labels.side[t] = 1;
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, mix64(seed, 0x7d)),
          std::move(labels)};
}

// ---------------------------------------------------------------------------
// Section 7 gadgets
// ---------------------------------------------------------------------------

TwoTreeGadget make_two_tree_gadget(int depth, std::uint64_t seed) {
  if (depth < 1) throw std::invalid_argument("two_tree_gadget: depth >= 1");
  const NodeIndex tree_n = (NodeIndex{1} << (depth + 1)) - 1;
  const NodeIndex n = 2 * tree_n;
  Graph::Builder builder(n);
  auto build_tree = [&](NodeIndex base) {
    const NodeIndex first_leaf = (NodeIndex{1} << depth) - 1;
    for (NodeIndex v = 0; v < first_leaf; ++v) {
      // Port 1 everywhere at the root is taken by the root-root edge, so
      // children sit on ports 2/3 at both roots and internal nodes alike.
      builder.add_edge_with_ports(base + v, base + 2 * v + 1, 2, 1);
      builder.add_edge_with_ports(base + v, base + 2 * v + 2, 3, 1);
    }
  };
  // Root-root edge first: port 1 at both roots.
  builder.add_edge_with_ports(0, tree_n, 1, 1);
  build_tree(0);
  build_tree(tree_n);
  TwoTreeGadget out;
  out.root_u = 0;
  out.root_v = tree_n;
  const NodeIndex first_leaf = (NodeIndex{1} << depth) - 1;
  for (NodeIndex i = first_leaf; i < tree_n; ++i) {
    out.u_leaves.push_back(i);
    out.v_leaves.push_back(tree_n + i);
    out.bits.push_back(static_cast<std::uint8_t>(mix64(seed, 0x2717, i) & 1));
  }
  out.graph = std::move(builder).build();
  out.ids = IdAssignment::sequential(n);
  return out;
}

RingInstance make_ring(NodeIndex n, std::uint64_t seed) {
  if (n < 3) throw std::invalid_argument("make_ring: n >= 3");
  Graph::Builder builder(n);
  for (NodeIndex i = 0; i < n; ++i) {
    builder.add_edge_with_ports(i, (i + 1) % n, 1, 2);  // 1 = successor, 2 = predecessor
  }
  return {std::move(builder).build(), IdAssignment::shuffled(n, seed)};
}

}  // namespace volcal
