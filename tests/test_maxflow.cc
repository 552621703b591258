// Set-to-set min cuts (MinCutBetween) and the batch's min-cut source side,
// both on the one unit-capacity Dinic in graph/paths.cc. Hand-built graphs
// pin the basic answers; a brute-force enumeration of every bipartition
// checks the side-set contraction against code that shares nothing with
// Dinic.
#include "graph/paths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace dcn::graph {
namespace {

// Two triangles {0,1,2} and {3,4,5} joined by the single bridge 2-3.
Graph TwoTriangles() {
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  g.AddEdge(2, 3);  // the bridge
  return g;
}

TEST(MaxFlowTest, SingleEdge) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{a}, std::vector<NodeId>{b}), 1);
}

TEST(MaxFlowTest, ParallelEdgesAdd) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{a}, std::vector<NodeId>{b}), 3);
}

TEST(MaxFlowTest, CycleGivesTwo) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 4; ++i) g.AddEdge(i, (i + 1) % 4);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}), 2);
}

TEST(MaxFlowTest, BridgeLimitsFlow) {
  const Graph g = TwoTriangles();
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{5}), 1);
}

TEST(MaxFlowTest, CompleteGraphK4) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.AddEdge(i, j);
  }
  // Min cut isolating a vertex of degree 3.
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{3}), 3);
}

TEST(MaxFlowTest, SetToSetFlow) {
  // Star: center 4, leaves 0..3. Cut between {0,1} and {2,3} is 2 (the two
  // links of one side's leaves).
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 4; ++i) g.AddEdge(i, 4);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0, 1}, std::vector<NodeId>{2, 3}),
            2);
}

TEST(MaxFlowTest, LinksInsideOneSideNeverCount) {
  // Path 0-1-2-3 with a triple bundle 0=1 inside side a and a direct a-b
  // link 1-3: the cut is the two links leaving {0,1}, not the bundle.
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 0; i < 3; ++i) g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0, 1}, std::vector<NodeId>{3}), 2);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{1, 0, 1}, std::vector<NodeId>{2, 3}),
            2);
}

TEST(MaxFlowTest, FailuresReduceCut) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  const EdgeId top = g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  g.AddEdge(3, 2);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}), 2);
  FailureSet failures{g};
  failures.KillEdge(top);
  EXPECT_EQ(
      MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}, &failures),
      1);
  failures.KillNode(3);
  EXPECT_EQ(
      MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{2}, &failures),
      0);
}

TEST(MaxFlowTest, DisconnectedGivesZero) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  EXPECT_EQ(MinCutBetween(g, std::vector<NodeId>{0}, std::vector<NodeId>{1}), 0);
}

TEST(MaxFlowTest, PreconditionViolations) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  EXPECT_THROW(MinCutBetween(g, {}, std::vector<NodeId>{b}), InvalidArgument);
  EXPECT_THROW(MinCutBetween(g, std::vector<NodeId>{a}, {}), InvalidArgument);
  EXPECT_THROW(
      MinCutBetween(g, std::vector<NodeId>{a}, std::vector<NodeId>{a}),
      InvalidArgument);
  EXPECT_THROW(
      MinCutBetween(g, std::vector<NodeId>{a}, std::vector<NodeId>{b, a}),
      InvalidArgument);
  EXPECT_THROW(
      MinCutBetween(g, std::vector<NodeId>{a}, std::vector<NodeId>{2}),
      InvalidArgument);
}

TEST(MaxFlowTest, MinCutSourceSideSeparatesTerminals) {
  const Graph g = TwoTriangles();
  FlowScope ws;
  EdgeConnectivityBatch batch{g.Csr(), *ws};
  EXPECT_EQ(batch.Connectivity(0, 5), 1u);
  std::vector<char> side;
  batch.MinCutSourceSide(0, side);
  ASSERT_EQ(side.size(), 6u);
  for (NodeId n = 0; n < 3; ++n) EXPECT_TRUE(side[n]) << n;
  for (NodeId n = 3; n < 6; ++n) EXPECT_FALSE(side[n]) << n;
  // Crossing edges must number exactly the flow value.
  std::size_t crossing = 0;
  for (EdgeId e = 0; static_cast<std::size_t>(e) < g.EdgeCount(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    if (side[u] != side[v]) ++crossing;
  }
  EXPECT_EQ(crossing, 1u);
  // The readout belongs to the last solve's source only.
  EXPECT_THROW(batch.MinCutSourceSide(1, side), InvalidArgument);
}

TEST(MaxFlowTest, MinCutSourceSideAfterDeadEndpointSolveIsFresh) {
  // Node 4 is dead. The solve 0 -> 5 saturates the bridge; the next solve
  // has a dead sink and returns 0 at once, and its source side must be the
  // whole live component of node 1 — read on pristine capacities, not on
  // the previous solve's residual, where the saturated bridge would cut
  // node 1 off from {3, 5}.
  const Graph g = TwoTriangles();
  FailureSet failures{g};
  failures.KillNode(4);
  FlowScope ws;
  EdgeConnectivityBatch batch{g.Csr(), *ws, &failures};
  EXPECT_EQ(batch.Connectivity(0, 5), 1u);
  EXPECT_EQ(batch.Connectivity(1, 4), 0u);
  std::vector<char> side;
  batch.MinCutSourceSide(1, side);
  EXPECT_EQ(side, (std::vector<char>{1, 1, 1, 1, 0, 1}));
  // A dead source reaches only itself.
  EXPECT_EQ(batch.Connectivity(4, 0), 0u);
  batch.MinCutSourceSide(4, side);
  EXPECT_EQ(side, (std::vector<char>{0, 0, 0, 0, 1, 0}));
}

// The fewest live links crossing any bipartition that puts every node of
// `side_a` on one side and every node of `side_b` on the other: enumerates
// all placements of the remaining nodes, sharing no code with Dinic.
std::int64_t BruteForceSetCut(const Graph& g, const FailureSet& failures,
                              const std::vector<NodeId>& side_a,
                              const std::vector<NodeId>& side_b) {
  const std::size_t nodes = g.NodeCount();
  std::vector<int> in_a(nodes, -1);
  for (const NodeId n : side_a) in_a[static_cast<std::size_t>(n)] = 1;
  for (const NodeId n : side_b) in_a[static_cast<std::size_t>(n)] = 0;
  std::vector<std::size_t> free;
  for (std::size_t n = 0; n < nodes; ++n) {
    if (in_a[n] < 0) free.push_back(n);
  }
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t mask = 0; mask < (1u << free.size()); ++mask) {
    for (std::size_t i = 0; i < free.size(); ++i) {
      in_a[free[i]] = static_cast<int>((mask >> i) & 1u);
    }
    std::int64_t crossing = 0;
    for (EdgeId e = 0; static_cast<std::size_t>(e) < g.EdgeCount(); ++e) {
      const auto [u, v] = g.Endpoints(e);
      if (failures.EdgeDead(e) || failures.NodeDead(u) || failures.NodeDead(v)) {
        continue;
      }
      if (in_a[static_cast<std::size_t>(u)] != in_a[static_cast<std::size_t>(v)]) {
        ++crossing;
      }
    }
    best = std::min(best, crossing);
  }
  return best;
}

TEST(MaxFlowTest, SetCutsMatchBruteForceBipartitions) {
  Rng rng{0x5e7c7};
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const auto nodes = static_cast<std::size_t>(rng.NextInt(2, 12));
    Graph g;
    for (std::size_t i = 0; i < nodes; ++i) g.AddNode(NodeKind::kServer);
    const auto links = static_cast<std::size_t>(rng.NextInt(0, 3 * nodes));
    for (std::size_t i = 0; i < links; ++i) {
      const auto u = static_cast<NodeId>(rng.NextUint64(nodes));
      const auto v = static_cast<NodeId>(rng.NextUint64(nodes));
      if (u == v) continue;
      g.AddEdge(u, v);
      if (rng.NextBernoulli(0.3)) g.AddEdge(v, u);  // a parallel link
    }
    FailureSet failures{g};
    for (std::size_t n = 0; n < nodes; ++n) {
      if (rng.NextBernoulli(0.1)) failures.KillNode(static_cast<NodeId>(n));
    }
    for (EdgeId e = 0; static_cast<std::size_t>(e) < g.EdgeCount(); ++e) {
      if (rng.NextBernoulli(0.15)) failures.KillEdge(e);
    }
    std::vector<NodeId> order(nodes);
    std::iota(order.begin(), order.end(), NodeId{0});
    rng.Shuffle(order);
    const auto size_a = static_cast<std::size_t>(
        rng.NextInt(1, static_cast<std::int64_t>(std::min<std::size_t>(3, nodes - 1))));
    const auto size_b = static_cast<std::size_t>(rng.NextInt(
        1, static_cast<std::int64_t>(std::min<std::size_t>(3, nodes - size_a))));
    const std::vector<NodeId> side_a(order.begin(), order.begin() + size_a);
    const std::vector<NodeId> side_b(order.begin() + size_a,
                                     order.begin() + size_a + size_b);
    const std::int64_t want = BruteForceSetCut(g, failures, side_a, side_b);
    EXPECT_EQ(MinCutBetween(g, side_a, side_b, &failures), want);
    EXPECT_EQ(MinCutBetween(g, side_b, side_a, &failures), want);
  }
}

}  // namespace
}  // namespace dcn::graph
