#include "graph/graph.hpp"

#include <algorithm>

namespace volcal {

void Graph::Builder::check_edge(NodeIndex v, NodeIndex w) const {
  for (const NodeIndex u : {v, w}) {
    if (u < 0 || u >= node_count()) {
      throw std::out_of_range("Graph::Builder: node " + std::to_string(u) + " out of range");
    }
  }
  if (v == w) throw std::invalid_argument("Graph::Builder: self-loops are not allowed");
}

std::pair<Port, Port> Graph::Builder::add_edge(NodeIndex v, NodeIndex w) {
  check_edge(v, w);
  const Port pv = ++max_port_[static_cast<std::size_t>(v)];
  const Port pw = ++max_port_[static_cast<std::size_t>(w)];
  edges_.push_back({v, w, pv, pw});
  return {pv, pw};
}

void Graph::Builder::add_edge_with_ports(NodeIndex v, NodeIndex w, Port pv, Port pw) {
  check_edge(v, w);
  if (pv < 1 || pw < 1) throw std::invalid_argument("Graph::Builder: ports are 1-based");
  Port& mv = max_port_[static_cast<std::size_t>(v)];
  Port& mw = max_port_[static_cast<std::size_t>(w)];
  mv = std::max(mv, pv);
  mw = std::max(mw, pw);
  edges_.push_back({v, w, pv, pw});
}

Graph Graph::Builder::build() && {
  const auto n = static_cast<std::size_t>(node_count());
  std::vector<Port>().swap(max_port_);

  // Pass 1: degrees, prefix-summed into CSR offsets.
  Graph g;
  g.offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++g.offsets_[static_cast<std::size_t>(e.v) + 1];
    ++g.offsets_[static_cast<std::size_t>(e.w) + 1];
  }
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.offsets_[v + 1]);
    g.offsets_[v + 1] += g.offsets_[v];
  }
  g.max_degree_ = static_cast<int>(max_degree);

  // Pass 2: each edge end goes to the slot of its port.  Port numbers must
  // form exactly 1..deg(v) -- the paper's port ordering is a bijection
  // between incident edges and [deg(v)] -- and with deg(v) ends per node that
  // holds iff no port exceeds the degree and no slot is claimed twice.
  g.adjacency_.assign(g.offsets_[n], kNoNode);
  auto place = [&g](NodeIndex at, Port port, NodeIndex to) {
    const std::size_t begin = g.offsets_[static_cast<std::size_t>(at)];
    const std::size_t degree = g.offsets_[static_cast<std::size_t>(at) + 1] - begin;
    const auto p = static_cast<std::size_t>(port);
    if (p > degree || g.adjacency_[begin + p - 1] != kNoNode) {
      throw std::invalid_argument("Graph::Builder: ports at a node must form exactly 1..deg(v)");
    }
    g.adjacency_[begin + p - 1] = to;
  };
  for (const Edge& e : edges_) {
    place(e.v, e.pv, e.w);
    place(e.w, e.pw, e.v);
  }
  std::vector<Edge>().swap(edges_);
  return g;
}

}  // namespace volcal
