#include "graph/paths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "reference.h"

namespace dcn::graph {
namespace {

// Checks that each path is a real src..dst walk and that no link is shared.
void CheckDisjointPaths(const Graph& g, NodeId src, NodeId dst,
                        const std::vector<std::vector<NodeId>>& paths) {
  std::set<std::pair<NodeId, NodeId>> used;  // normalized endpoints
  for (const auto& path : paths) {
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      ASSERT_TRUE(g.Adjacent(path[i], path[i + 1]))
          << path[i] << " -> " << path[i + 1];
      auto key = std::minmax(path[i], path[i + 1]);
      // No parallel edges in these fixtures, so endpoint pairs identify links.
      EXPECT_TRUE(used.insert({key.first, key.second}).second)
          << "link reused: " << key.first << "-" << key.second;
    }
  }
}

TEST(DisjointPathsTest, CycleHasTwo) {
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 6; ++i) g.AddEdge(i, (i + 1) % 6);
  const auto paths = EdgeDisjointPaths(g, 0, 3);
  EXPECT_EQ(paths.size(), 2u);
  CheckDisjointPaths(g, 0, 3, paths);
}

TEST(DisjointPathsTest, BridgeHasOne) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(3, 2);
  // 0 -> 2 must pass the 0-1 bridge.
  const auto paths = EdgeDisjointPaths(g, 0, 2);
  EXPECT_EQ(paths.size(), 1u);
  CheckDisjointPaths(g, 0, 2, paths);
}

TEST(DisjointPathsTest, CompleteGraphK5) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) g.AddEdge(i, j);
  }
  const auto paths = EdgeDisjointPaths(g, 0, 4);
  EXPECT_EQ(paths.size(), 4u);
  CheckDisjointPaths(g, 0, 4, paths);
}

TEST(DisjointPathsTest, MaxPathsLimitsSearch) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) g.AddEdge(i, j);
  }
  const auto paths = EdgeDisjointPaths(g, 0, 4, 2);
  EXPECT_EQ(paths.size(), 2u);
  CheckDisjointPaths(g, 0, 4, paths);
}

TEST(DisjointPathsTest, UnreachableGivesEmpty) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  EXPECT_TRUE(EdgeDisjointPaths(g, 0, 1).empty());
}

TEST(DisjointPathsTest, FailuresRemoveCapacity) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  const EdgeId direct = g.AddEdge(0, 3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 3);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  FailureSet failures{g};
  const auto count = [&] {
    return EdgeDisjointPaths(g, 0, 3, 10, &failures).size();
  };
  EXPECT_EQ(count(), 3u);
  failures.KillEdge(direct);
  EXPECT_EQ(count(), 2u);
  failures.KillNode(1);
  EXPECT_EQ(count(), 1u);
  failures.KillNode(0);
  EXPECT_EQ(count(), 0u);
}

TEST(DisjointPathsTest, SameEndpointsThrow) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  EXPECT_THROW(EdgeDisjointPaths(g, 0, 0), InvalidArgument);
  FlowScope ws;
  EdgeConnectivityBatch batch{g.Csr(), *ws};
  EXPECT_THROW(batch.Connectivity(0, 0), InvalidArgument);
}

TEST(DisjointPathsTest, AntiparallelFlowIsCancelled) {
  // Diamond with a crossing middle edge; flow decomposition must still
  // produce simple-link paths.
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 4);
  g.AddEdge(1, 4);
  g.AddEdge(2, 3);
  g.AddEdge(3, 5);
  g.AddEdge(4, 5);
  const auto paths = EdgeDisjointPaths(g, 0, 5);
  EXPECT_EQ(paths.size(), 2u);
  CheckDisjointPaths(g, 0, 5, paths);
}

Graph RandomGraph(Rng& rng, std::size_t nodes, std::size_t edges) {
  Graph g;
  for (std::size_t i = 0; i < nodes; ++i) g.AddNode(NodeKind::kServer);
  // A random spine keeps most of the graph connected; extra random edges add
  // the parallel capacity the flow solver has to find.
  for (std::size_t i = 1; i < nodes; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.NextUint64(i)), static_cast<NodeId>(i));
  }
  for (std::size_t e = nodes - 1; e < edges; ++e) {
    const auto u = static_cast<NodeId>(rng.NextUint64(nodes));
    const auto v = static_cast<NodeId>(rng.NextUint64(nodes));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

TEST(BatchConnectivityTest, MatchesReferenceOnRandomGraphs) {
  Rng rng{2024};
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t nodes = 8 + rng.NextUint64(40);
    const Graph g = RandomGraph(rng, nodes, nodes * 2);
    const CsrView& csr = g.Csr();
    FlowScope batch_ws;
    EdgeConnectivityBatch batch{csr, *batch_ws};
    for (int q = 0; q < 30; ++q) {
      const auto src = static_cast<NodeId>(rng.NextUint64(nodes));
      auto dst = src;
      while (dst == src) dst = static_cast<NodeId>(rng.NextUint64(nodes));
      // Exercise both hint values: the cached-level path must be a pure
      // optimization.
      const bool repeated = (q % 3) != 0;
      EXPECT_EQ(batch.Connectivity(src, dst, repeated),
                static_cast<std::size_t>(ReferenceCut(csr, src, dst)))
          << "trial " << trial << " query " << q << ": " << src << "->" << dst;
    }
  }
}

TEST(BatchConnectivityTest, RepeatedSourceSharesLevels) {
  Rng rng{7};
  const Graph g = RandomGraph(rng, 32, 80);
  const CsrView& csr = g.Csr();
  FlowScope ws;
  EdgeConnectivityBatch batch{csr, *ws};
  const NodeId src = 3;
  for (NodeId dst = 0; static_cast<std::size_t>(dst) < 32; ++dst) {
    if (dst == src) continue;
    EXPECT_EQ(batch.Connectivity(src, dst, /*repeated_source=*/true),
              static_cast<std::size_t>(ReferenceCut(csr, src, dst)))
        << src << "->" << dst;
  }
}

TEST(BatchConnectivityTest, HonorsFailures) {
  Rng rng{99};
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = RandomGraph(rng, 24, 60);
    FailureSet failures{g};
    for (int k = 0; k < 4; ++k) {
      failures.KillEdge(static_cast<EdgeId>(rng.NextUint64(g.EdgeCount())));
    }
    failures.KillNode(static_cast<NodeId>(rng.NextUint64(24)));
    const CsrView& csr = g.Csr();
    FlowScope batch_ws;
    EdgeConnectivityBatch batch{csr, *batch_ws, &failures};
    for (int q = 0; q < 20; ++q) {
      const auto src = static_cast<NodeId>(rng.NextUint64(24));
      auto dst = src;
      while (dst == src) dst = static_cast<NodeId>(rng.NextUint64(24));
      EXPECT_EQ(batch.Connectivity(src, dst, q % 2 == 0),
                static_cast<std::size_t>(
                    ReferenceCut(csr, src, dst, &failures)))
          << "trial " << trial << ": " << src << "->" << dst;
    }
  }
}

}  // namespace
}  // namespace dcn::graph
