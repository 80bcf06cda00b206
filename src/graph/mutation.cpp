#include "graph/mutation.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace volcal {
namespace {

void check_index(NodeIndex v, NodeIndex n, const char* what) {
  if (v < 0 || v >= n) {
    throw std::invalid_argument("apply_mutation: " + std::string(what) + " " +
                                std::to_string(v) + " out of range for n = " +
                                std::to_string(n));
  }
}

[[noreturn]] void throw_not_a_leaf(NodeIndex leaf, std::size_t deg) {
  throw std::invalid_argument("apply_mutation: rewire of node " + std::to_string(leaf) +
                              " with degree " + std::to_string(deg) +
                              " (only degree-1 leaves can be rewired)");
}

[[noreturn]] void throw_self_rewire(NodeIndex leaf) {
  throw std::invalid_argument("apply_mutation: self-rewire of node " +
                              std::to_string(leaf));
}

}  // namespace

AppliedMutation apply_mutation(GraphView g, const MutationBatch& batch) {
  const NodeIndex n = g.node_count();
  for (const LabelUpdate& u : batch.label_updates) {
    check_index(u.node, n, "label-update node");
  }

  // Neighbor lists of the nodes the rewires edit, copied from the input on
  // first touch; port order implicit in position (port p lives at index
  // p-1) — erase *is* the port compaction, push_back *is* "next free port".
  // The Builder-based reference path below carries explicit port numbers
  // instead, so the two implementations share no representation.
  std::map<NodeIndex, std::vector<NodeIndex>> edited;
  const auto list_of = [&](NodeIndex v) -> std::vector<NodeIndex>& {
    const auto [it, fresh] = edited.try_emplace(v);
    if (fresh) {
      const auto span = g.neighbors(v);
      it->second.assign(span.begin(), span.end());
    }
    return it->second;
  };

  std::vector<NodeIndex> touched;
  touched.reserve(batch.rewires.size() * 3);
  for (const LeafRewire& r : batch.rewires) {
    check_index(r.leaf, n, "rewire leaf");
    check_index(r.new_parent, n, "rewire new_parent");
    if (r.leaf == r.new_parent) throw_self_rewire(r.leaf);
    auto& ln = list_of(r.leaf);
    if (ln.size() != 1) throw_not_a_leaf(r.leaf, ln.size());
    const NodeIndex old_parent = ln.front();
    auto& pn = list_of(old_parent);
    pn.erase(std::find(pn.begin(), pn.end(), r.leaf));
    list_of(r.new_parent).push_back(r.leaf);
    ln.front() = r.new_parent;
    touched.push_back(r.leaf);
    touched.push_back(old_parent);
    touched.push_back(r.new_parent);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // One pass over the nodes in index order: each run of unedited nodes is
  // copied as one adjacency span with its offsets shifted, each edited node's
  // list is spliced in between.
  const std::size_t* old_offsets = g.offsets_data();
  const NodeIndex* old_adjacency = g.adjacency_data();
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeIndex> adjacency;
  adjacency.reserve(n == 0 ? 0 : old_offsets[n]);  // a rewire moves an edge
  int max_degree = 0;
  const auto copy_run = [&](NodeIndex from, NodeIndex to) {
    if (from == to) return;
    const std::size_t base = adjacency.size() - old_offsets[from];
    adjacency.insert(adjacency.end(), old_adjacency + old_offsets[from],
                     old_adjacency + old_offsets[to]);
    for (NodeIndex v = from; v < to; ++v) {
      offsets[static_cast<std::size_t>(v) + 1] = base + old_offsets[v + 1];
      max_degree =
          std::max(max_degree, static_cast<int>(old_offsets[v + 1] - old_offsets[v]));
    }
  };
  NodeIndex next = 0;
  for (const auto& [v, list] : edited) {
    copy_run(next, v);
    adjacency.insert(adjacency.end(), list.begin(), list.end());
    offsets[static_cast<std::size_t>(v) + 1] = adjacency.size();
    max_degree = std::max(max_degree, static_cast<int>(list.size()));
    next = v + 1;
  }
  copy_run(next, n);

  AppliedMutation out;
  out.graph = Graph::from_csr(std::move(offsets), std::move(adjacency), max_degree);
  out.touched = std::move(touched);
  return out;
}

Graph apply_mutation_naive(GraphView g, const MutationBatch& batch) {
  const NodeIndex n = g.node_count();
  struct PortedEdge {
    Port port;
    NodeIndex to;
  };
  std::vector<std::vector<PortedEdge>> ports(static_cast<std::size_t>(n));
  for (NodeIndex v = 0; v < n; ++v) {
    const int deg = g.degree(v);
    for (Port p = 1; p <= deg; ++p) {
      ports[static_cast<std::size_t>(v)].push_back({p, g.neighbor(v, p)});
    }
  }

  for (const LeafRewire& r : batch.rewires) {
    check_index(r.leaf, n, "rewire leaf");
    check_index(r.new_parent, n, "rewire new_parent");
    if (r.leaf == r.new_parent) throw_self_rewire(r.leaf);
    auto& ln = ports[static_cast<std::size_t>(r.leaf)];
    if (ln.size() != 1) throw_not_a_leaf(r.leaf, ln.size());
    const NodeIndex old_parent = ln.front().to;
    auto& pn = ports[static_cast<std::size_t>(old_parent)];
    const auto it = std::find_if(pn.begin(), pn.end(),
                                 [&](const PortedEdge& e) { return e.to == r.leaf; });
    const Port removed = it->port;
    pn.erase(it);
    for (PortedEdge& e : pn) {
      if (e.port > removed) --e.port;  // explicit port compaction
    }
    ports[static_cast<std::size_t>(r.new_parent)].push_back(
        {static_cast<Port>(ports[static_cast<std::size_t>(r.new_parent)].size() + 1),
         r.leaf});
    ln.front() = {1, r.new_parent};
  }

  Graph::Builder b(n);
  for (NodeIndex v = 0; v < n; ++v) {
    for (const PortedEdge& e : ports[static_cast<std::size_t>(v)]) {
      if (v > e.to) continue;  // each undirected edge added once
      const auto& back = ports[static_cast<std::size_t>(e.to)];
      const auto bit = std::find_if(back.begin(), back.end(),
                                    [&](const PortedEdge& w) { return w.to == v; });
      b.add_edge_with_ports(v, e.to, e.port, bit->port);
    }
  }
  return std::move(b).build();
}

}  // namespace volcal
