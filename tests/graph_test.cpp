#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "graph/bfs.hpp"

namespace volcal {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  Graph g = Graph::Builder(0).build();
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(GraphBuilder, SingleEdgeAutoPorts) {
  Graph::Builder b(2);
  auto [pv, pw] = b.add_edge(0, 1);
  EXPECT_EQ(pv, 1);
  EXPECT_EQ(pw, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.neighbor(0, 1), 1);
  EXPECT_EQ(g.neighbor(1, 1), 0);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.max_degree(), 1);
}

TEST(GraphBuilder, ExplicitPortsRespected) {
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 2, 1);
  b.add_edge_with_ports(0, 2, 1, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.neighbor(0, 1), 2);
  EXPECT_EQ(g.neighbor(0, 2), 1);
  EXPECT_EQ(g.port_to(0, 1), 2);
  EXPECT_EQ(g.port_to(0, 2), 1);
  EXPECT_EQ(g.port_to(1, 0), 1);
}

TEST(GraphBuilder, AutoPortsAppendAfterExplicit) {
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 1, 1);
  auto [pv, pw] = b.add_edge(0, 2);
  EXPECT_EQ(pv, 2);
  EXPECT_EQ(pw, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(0), 2);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  Graph::Builder b(1);
  EXPECT_THROW(b.add_edge(0, 0), std::invalid_argument);
  Graph::Builder b2(1);
  EXPECT_THROW(b2.add_edge_with_ports(0, 0, 1, 2), std::invalid_argument);
}

TEST(GraphBuilder, RejectsNonContiguousPorts) {
  Graph::Builder b(2);
  b.add_edge_with_ports(0, 1, 2, 1);  // port 2 at node 0, but no port 1
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(GraphBuilder, RejectsDuplicatePort) {
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 1, 1);
  b.add_edge_with_ports(0, 2, 1, 1);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(GraphBuilder, RejectsPortAboveDegree) {
  Graph::Builder b(3);
  b.add_edge_with_ports(0, 1, 1, 1);
  b.add_edge_with_ports(0, 2, 3, 1);  // node 0 has degree 2 but uses port 3
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(GraphBuilder, AutoPortsFollowExplicitPortsAtBothEndpoints) {
  Graph::Builder b(4);
  b.add_edge_with_ports(0, 1, 2, 1);
  b.add_edge_with_ports(0, 2, 1, 2);
  b.add_edge_with_ports(2, 3, 1, 2);
  b.add_edge_with_ports(1, 3, 2, 1);
  auto [pv, pw] = b.add_edge(0, 3);  // after the largest port at each end
  EXPECT_EQ(pv, 3);
  EXPECT_EQ(pw, 3);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.neighbor(0, 3), 3);
  EXPECT_EQ(g.neighbor(3, 3), 0);
  EXPECT_EQ(g.neighbor(3, 1), 1);
  EXPECT_EQ(g.neighbor(3, 2), 2);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(GraphBuilder, RejectsOutOfRangeNode) {
  Graph::Builder b(2);
  EXPECT_THROW(b.add_edge(0, 5), std::out_of_range);
}

TEST(Graph, PortOutOfRangeThrows) {
  Graph::Builder b(2);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_THROW(g.neighbor(0, 0), std::out_of_range);
  EXPECT_THROW(g.neighbor(0, 2), std::out_of_range);
  EXPECT_THROW(g.neighbor(5, 1), std::out_of_range);
}

TEST(Graph, NeighborsSpanInPortOrder) {
  Graph::Builder b(4);
  b.add_edge_with_ports(0, 1, 3, 1);
  b.add_edge_with_ports(0, 2, 1, 1);
  b.add_edge_with_ports(0, 3, 2, 1);
  Graph g = std::move(b).build();
  auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 2);
  EXPECT_EQ(nbrs[1], 3);
  EXPECT_EQ(nbrs[2], 1);
}

TEST(Graph, AddNodeGrows) {
  Graph::Builder b(1);
  const NodeIndex v = b.add_node();
  EXPECT_EQ(v, 1);
  b.add_edge(0, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_TRUE(g.adjacent(0, 1));
}

TEST(Graph, AddNodeAfterEdges) {
  Graph::Builder b(2);
  b.add_edge(0, 1);
  const NodeIndex v = b.add_node();
  EXPECT_EQ(v, 2);
  auto [pv, pw] = b.add_edge(1, v);
  EXPECT_EQ(pv, 2);
  EXPECT_EQ(pw, 1);
  const NodeIndex lone = b.add_node();
  EXPECT_EQ(lone, 3);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.neighbor(1, 1), 0);
  EXPECT_EQ(g.neighbor(1, 2), 2);
  EXPECT_EQ(g.neighbor(2, 1), 1);
  EXPECT_EQ(g.degree(lone), 0);
}

Graph path_graph(NodeIndex n) {
  Graph::Builder b(n);
  for (NodeIndex i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

TEST(Bfs, DistancesOnPath) {
  Graph g = path_graph(5);
  auto d = bfs_distances(g, 0);
  for (NodeIndex i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Bfs, UnreachableMarked) {
  Graph::Builder b(3);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Bfs, BallContents) {
  Graph g = path_graph(7);
  auto ball2 = ball(g, 3, 2);
  EXPECT_EQ(ball2.size(), 5u);
  auto ball0 = ball(g, 3, 0);
  ASSERT_EQ(ball0.size(), 1u);
  EXPECT_EQ(ball0[0], 3);
  auto ballneg = ball(g, 3, -1);
  EXPECT_TRUE(ballneg.empty());
}

TEST(Bfs, BallWithDistancesLayers) {
  Graph g = path_graph(7);
  auto b = ball_with_distances(g, 0, 3);
  ASSERT_EQ(b.nodes.size(), 4u);
  for (std::size_t i = 0; i < b.nodes.size(); ++i) EXPECT_EQ(b.dist[i], b.nodes[i]);
}

TEST(Bfs, Eccentricity) {
  Graph g = path_graph(6);
  EXPECT_EQ(eccentricity(g, 0), 5);
  EXPECT_EQ(eccentricity(g, 3), 3);
}

TEST(Bfs, ConnectedComponents) {
  Graph::Builder b(5);
  b.add_edge(0, 1);
  b.add_edge(3, 4);
  Graph g = std::move(b).build();
  auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 3);
  EXPECT_EQ(comps.component_of[0], comps.component_of[1]);
  EXPECT_EQ(comps.component_of[3], comps.component_of[4]);
  EXPECT_NE(comps.component_of[0], comps.component_of[2]);
  EXPECT_NE(comps.component_of[0], comps.component_of[3]);
}

}  // namespace
}  // namespace volcal
