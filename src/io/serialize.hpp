// Instance (de)serialization and Graphviz export.
//
// Text format (line-oriented, self-describing) so instances can be archived,
// diffed, and fed to external tooling:
//
//   volcal-instance v1 <kind>
//   n <node_count>
//   node <index> id <id> [kind-specific label fields]
//   edge <u> <pu> <v> <pv>
//   end
//
// Kinds: leafcoloring (colored tree labeling), balancedtree, hybrid, hh.
// DOT export renders the claimed structure: tree claims as solid directed
// edges (parent -> child), lateral claims dashed, colors as fill.
#pragma once

#include <iosfwd>
#include <string>

#include "labels/instances.hpp"

namespace volcal::io {

void write_instance(std::ostream& os, const LeafColoringInstance& inst);
void write_instance(std::ostream& os, const BalancedTreeInstance& inst);
void write_instance(std::ostream& os, const HybridInstance& inst);

LeafColoringInstance read_leafcoloring(std::istream& is);
BalancedTreeInstance read_balancedtree(std::istream& is);
HybridInstance read_hybrid(std::istream& is);

// Graphviz rendering of the labeled structure; `max_nodes` guards against
// accidentally dumping megabyte graphs (0 = no limit).
std::string to_dot(const LeafColoringInstance& inst, NodeIndex max_nodes = 0);
std::string to_dot(const BalancedTreeInstance& inst, NodeIndex max_nodes = 0);

}  // namespace volcal::io
