#include "graph/graph.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace dcn::graph {
namespace {

Graph MakeTriangle() {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  const NodeId c = g.AddNode(NodeKind::kSwitch);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, a);
  return g;
}

TEST(GraphTest, NodeAndEdgeAccounting) {
  const Graph g = MakeTriangle();
  EXPECT_EQ(g.NodeCount(), 3u);
  EXPECT_EQ(g.EdgeCount(), 3u);
  EXPECT_EQ(g.ServerCount(), 2u);
  EXPECT_EQ(g.SwitchCount(), 1u);
  EXPECT_TRUE(g.IsServer(0));
  EXPECT_TRUE(g.IsSwitch(2));
  EXPECT_EQ(g.KindOf(1), NodeKind::kServer);
  ASSERT_EQ(g.Servers().size(), 2u);
  EXPECT_EQ(g.Servers()[0], 0);
  EXPECT_EQ(g.Servers()[1], 1);
}

TEST(GraphTest, AdjacencyAndDegrees) {
  const Graph g = MakeTriangle();
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 2u);
  bool found = false;
  for (const HalfEdge& half : g.Neighbors(0)) {
    if (half.to == 1) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GraphTest, Endpoints) {
  const Graph g = MakeTriangle();
  const auto [u, v] = g.Endpoints(0);
  EXPECT_EQ(u, 0);
  EXPECT_EQ(v, 1);
  EXPECT_THROW(g.Endpoints(99), InvalidArgument);
}

TEST(GraphTest, AdjacentAndFindEdge) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  const NodeId c = g.AddNode(NodeKind::kServer);
  const EdgeId ab = g.AddEdge(a, b);
  EXPECT_TRUE(g.Adjacent(a, b));
  EXPECT_TRUE(g.Adjacent(b, a));
  EXPECT_FALSE(g.Adjacent(a, c));
  EXPECT_EQ(g.FindEdge(a, b), ab);
  EXPECT_EQ(g.FindEdge(a, c), kInvalidEdge);
}

TEST(GraphTest, FindEdgeOnSkewedDegreesAgreesFromEitherSide) {
  // A hub with a large adjacency list and leaves of small degree. FindEdge
  // scans the smaller endpoint's list (O(min degree)); because adjacency
  // lists append in edge-id order, the answer is the lowest-id parallel link
  // no matter which side the scan runs on — so the argument order must not
  // change the result.
  Graph g;
  const NodeId hub = g.AddNode(NodeKind::kSwitch);
  std::vector<NodeId> leaves;
  std::vector<EdgeId> first_link;
  for (int i = 0; i < 64; ++i) {
    const NodeId leaf = g.AddNode(NodeKind::kServer);
    leaves.push_back(leaf);
    first_link.push_back(g.AddEdge(hub, leaf));
  }
  // Parallel links added later get higher edge ids and must never win.
  for (const NodeId leaf : leaves) g.AddEdge(leaf, hub);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(g.FindEdge(hub, leaves[i]), first_link[i]);
    EXPECT_EQ(g.FindEdge(leaves[i], hub), first_link[i]);
    EXPECT_TRUE(g.Adjacent(hub, leaves[i]));
    EXPECT_TRUE(g.Adjacent(leaves[i], hub));
  }
  EXPECT_EQ(g.FindEdge(leaves[0], leaves[1]), kInvalidEdge);
}

TEST(GraphTest, SelfLoopRejected) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  EXPECT_THROW(g.AddEdge(a, a), InvalidArgument);
}

TEST(GraphTest, ParallelEdgesAllowed) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_EQ(g.Degree(a), 2u);
}

TEST(GraphTest, OutOfRangeChecks) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  EXPECT_THROW(g.KindOf(-1), InvalidArgument);
  EXPECT_THROW(g.KindOf(5), InvalidArgument);
  EXPECT_THROW(g.Neighbors(5), InvalidArgument);
  EXPECT_THROW(g.AddEdge(0, 5), InvalidArgument);
}

TEST(FailureSetTest, KillMarksDead) {
  const Graph g = MakeTriangle();
  FailureSet failures{g};
  EXPECT_FALSE(failures.NodeDead(0));
  failures.KillNode(0);
  failures.KillEdge(1);
  EXPECT_TRUE(failures.NodeDead(0));
  EXPECT_TRUE(failures.EdgeDead(1));
  EXPECT_EQ(failures.DeadNodeCount(), 1u);
  EXPECT_EQ(failures.DeadEdgeCount(), 1u);
}

TEST(FailureSetTest, HalfEdgeUsableRespectsBothFailureKinds) {
  const Graph g = MakeTriangle();
  FailureSet failures{g};
  const HalfEdge half = g.Neighbors(0)[0];  // 0 -> 1 via edge 0
  EXPECT_TRUE(failures.HalfEdgeUsable(half));
  failures.KillEdge(half.edge);
  EXPECT_FALSE(failures.HalfEdgeUsable(half));
  FailureSet node_down{g};
  node_down.KillNode(half.to);
  EXPECT_FALSE(node_down.HalfEdgeUsable(half));
}

TEST(FailureSetTest, DefaultConstructedReportsNothingDead) {
  FailureSet failures;
  EXPECT_FALSE(failures.NodeDead(0));
  EXPECT_FALSE(failures.EdgeDead(0));
}

TEST(FailureSetTest, OutOfRangeKillThrows) {
  const Graph g = MakeTriangle();
  FailureSet failures{g};
  EXPECT_THROW(failures.KillNode(99), InvalidArgument);
  EXPECT_THROW(failures.KillEdge(99), InvalidArgument);
}

}  // namespace
}  // namespace dcn::graph
