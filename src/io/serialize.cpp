#include "io/serialize.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace volcal::io {
namespace {

constexpr const char* kMagic = "volcal-instance v1";

void write_edges(std::ostream& os, const Graph& g) {
  for (NodeIndex v = 0; v < g.node_count(); ++v) {
    auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeIndex w = nbrs[i];
      if (v < w) {
        os << "edge " << v << ' ' << (i + 1) << ' ' << w << ' ' << g.port_to(w, v)
           << '\n';
      }
    }
  }
}

void write_tree_fields(std::ostream& os, const TreeLabeling& t, NodeIndex v) {
  os << " p " << t.parent[v] << " lc " << t.left[v] << " rc " << t.right[v];
}

struct Parser {
  std::istream* is;
  std::string kind;
  NodeIndex n = 0;

  explicit Parser(std::istream& stream, const std::string& expected_kind) : is(&stream) {
    std::string line;
    if (!std::getline(*is, line)) throw std::runtime_error("io: empty stream");
    std::istringstream head(line);
    std::string w1, w2;
    head >> w1 >> w2 >> kind;
    if (w1 + " " + w2 != kMagic) throw std::runtime_error("io: bad magic: " + line);
    if (kind != expected_kind) {
      throw std::runtime_error("io: expected kind " + expected_kind + ", got " + kind);
    }
    std::string tag;
    *is >> tag >> n;
    if (tag != "n" || n < 0) throw std::runtime_error("io: bad node count line");
  }

  // Dispatches the remaining lines to the two callbacks until "end".
  template <typename NodeFn, typename EdgeFn>
  void parse(NodeFn&& on_node, EdgeFn&& on_edge) {
    std::string tag;
    while (*is >> tag) {
      if (tag == "end") return;
      if (tag == "node") {
        NodeIndex v;
        *is >> v;
        if (v < 0 || v >= n) throw std::runtime_error("io: node index out of range");
        on_node(v);
      } else if (tag == "edge") {
        NodeIndex u, v;
        Port pu, pv;
        *is >> u >> pu >> v >> pv;
        on_edge(u, pu, v, pv);
      } else {
        throw std::runtime_error("io: unknown tag " + tag);
      }
    }
    throw std::runtime_error("io: missing end marker");
  }

  // Reads "key value" where key must match; returns value.
  template <typename T>
  T field(const std::string& key) {
    std::string tag;
    T value;
    *is >> tag >> value;
    if (tag != key) throw std::runtime_error("io: expected field " + key + ", got " + tag);
    return value;
  }
};

char color_code(Color c) { return c == Color::Red ? 'R' : 'B'; }

Color parse_color(char c) {
  if (c == 'R') return Color::Red;
  if (c == 'B') return Color::Blue;
  throw std::runtime_error(std::string("io: bad color code ") + c);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

void write_instance(std::ostream& os, const LeafColoringInstance& inst) {
  os << kMagic << " leafcoloring\n" << "n " << inst.node_count() << '\n';
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    os << "node " << v << " id " << inst.ids.id_of(v);
    write_tree_fields(os, inst.labels.tree, v);
    os << " chi " << color_code(inst.labels.color[v]) << '\n';
  }
  write_edges(os, inst.graph);
  os << "end\n";
}

void write_instance(std::ostream& os, const BalancedTreeInstance& inst) {
  os << kMagic << " balancedtree\n" << "n " << inst.node_count() << '\n';
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    os << "node " << v << " id " << inst.ids.id_of(v);
    write_tree_fields(os, inst.labels.tree, v);
    os << " ln " << inst.labels.left_nbr[v] << " rn " << inst.labels.right_nbr[v] << '\n';
  }
  write_edges(os, inst.graph);
  os << "end\n";
}

void write_instance(std::ostream& os, const HybridInstance& inst) {
  os << kMagic << " hybrid\n" << "n " << inst.node_count() << '\n';
  for (NodeIndex v = 0; v < inst.node_count(); ++v) {
    os << "node " << v << " id " << inst.ids.id_of(v);
    write_tree_fields(os, inst.labels.bal.tree, v);
    os << " ln " << inst.labels.bal.left_nbr[v] << " rn " << inst.labels.bal.right_nbr[v]
       << " chi " << color_code(inst.labels.color[v]) << " lvl "
       << inst.labels.level_in[v] << '\n';
  }
  write_edges(os, inst.graph);
  os << "end\n";
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

namespace {

template <typename Labels, typename NodeFields>
Instance<Labels> read_generic(std::istream& is, const std::string& kind,
                              NodeFields&& node_fields) {
  Parser parser(is, kind);
  Graph::Builder builder(parser.n);
  Labels labels(parser.n);
  std::vector<NodeId> ids(static_cast<std::size_t>(parser.n), 0);
  parser.parse(
      [&](NodeIndex v) {
        ids[static_cast<std::size_t>(v)] = parser.field<NodeId>("id");
        node_fields(parser, labels, v);
      },
      [&](NodeIndex u, Port pu, NodeIndex v, Port pv) {
        builder.add_edge_with_ports(u, v, pu, pv);
      });
  return {std::move(builder).build(), IdAssignment(std::move(ids)), std::move(labels)};
}

void read_tree_fields(Parser& p, TreeLabeling& t, NodeIndex v) {
  t.parent[v] = p.field<Port>("p");
  t.left[v] = p.field<Port>("lc");
  t.right[v] = p.field<Port>("rc");
}

}  // namespace

LeafColoringInstance read_leafcoloring(std::istream& is) {
  return read_generic<ColoredTreeLabeling>(
      is, "leafcoloring", [](Parser& p, ColoredTreeLabeling& l, NodeIndex v) {
        read_tree_fields(p, l.tree, v);
        l.color[v] = parse_color(p.field<char>("chi"));
      });
}

BalancedTreeInstance read_balancedtree(std::istream& is) {
  return read_generic<BalancedTreeLabeling>(
      is, "balancedtree", [](Parser& p, BalancedTreeLabeling& l, NodeIndex v) {
        read_tree_fields(p, l.tree, v);
        l.left_nbr[v] = p.field<Port>("ln");
        l.right_nbr[v] = p.field<Port>("rn");
      });
}

HybridInstance read_hybrid(std::istream& is) {
  return read_generic<HybridLabeling>(
      is, "hybrid", [](Parser& p, HybridLabeling& l, NodeIndex v) {
        read_tree_fields(p, l.bal.tree, v);
        l.bal.left_nbr[v] = p.field<Port>("ln");
        l.bal.right_nbr[v] = p.field<Port>("rn");
        l.color[v] = parse_color(p.field<char>("chi"));
        l.level_in[v] = p.field<int>("lvl");
      });
}

// ---------------------------------------------------------------------------
// DOT export
// ---------------------------------------------------------------------------

namespace {

void dot_tree_edges(std::ostream& os, const Graph& g, const TreeLabeling& t, NodeIndex n) {
  for (NodeIndex v = 0; v < n; ++v) {
    for (const auto& [port, tag] :
         {std::pair{t.left[v], "LC"}, std::pair{t.right[v], "RC"}}) {
      const NodeIndex child = resolve(g, v, port);
      if (child != kNoNode && child < n) {
        os << "  n" << v << " -> n" << child << " [label=\"" << tag << "\"];\n";
      }
    }
  }
}

}  // namespace

std::string to_dot(const LeafColoringInstance& inst, NodeIndex max_nodes) {
  const NodeIndex n =
      max_nodes > 0 ? std::min(max_nodes, inst.node_count()) : inst.node_count();
  std::ostringstream os;
  os << "digraph leafcoloring {\n  node [style=filled];\n";
  for (NodeIndex v = 0; v < n; ++v) {
    const char* fill = inst.labels.color[v] == Color::Red ? "salmon" : "lightblue";
    const NodeKind kind = classify(inst.graph, inst.labels.tree, v);
    const char* shape = kind == NodeKind::Internal ? "circle"
                        : kind == NodeKind::Leaf   ? "doublecircle"
                                                   : "box";
    os << "  n" << v << " [label=\"" << inst.ids.id_of(v) << "\", fillcolor=" << fill
       << ", shape=" << shape << "];\n";
  }
  dot_tree_edges(os, inst.graph, inst.labels.tree, n);
  os << "}\n";
  return os.str();
}

std::string to_dot(const BalancedTreeInstance& inst, NodeIndex max_nodes) {
  const NodeIndex n =
      max_nodes > 0 ? std::min(max_nodes, inst.node_count()) : inst.node_count();
  std::ostringstream os;
  os << "digraph balancedtree {\n  node [style=filled, fillcolor=white];\n";
  for (NodeIndex v = 0; v < n; ++v) {
    os << "  n" << v << " [label=\"" << inst.ids.id_of(v) << "\"];\n";
  }
  dot_tree_edges(os, inst.graph, inst.labels.tree, n);
  for (NodeIndex v = 0; v < n; ++v) {
    const NodeIndex rn = resolve(inst.graph, v, inst.labels.right_nbr[v]);
    if (rn != kNoNode && rn < n) {
      os << "  n" << v << " -> n" << rn << " [style=dashed, constraint=false];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace volcal::io
