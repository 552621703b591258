// Stress tests for the epoch-stamped traversal workspaces (graph/workspace.h):
// thousands of reuses across interleaved epochs, graphs of different sizes,
// and nested scope borrows must never leak state between traversals.
#include "graph/workspace.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/csr.h"
#include "graph/paths.h"
#include "reference.h"

namespace dcn::graph {
namespace {

Graph Ring(std::size_t nodes) {
  Graph g;
  for (std::size_t i = 0; i < nodes; ++i) g.AddNode(NodeKind::kServer);
  for (std::size_t i = 0; i < nodes; ++i) {
    g.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % nodes));
  }
  return g;
}

TEST(EpochMarksTest, EpochsIsolateThousandsOfRounds) {
  EpochMarks marks;
  Rng rng{7};
  for (int round = 0; round < 5000; ++round) {
    const std::size_t size = 16 + (round % 48);  // exercise growth + shrink
    marks.Begin(size);
    std::vector<bool> expect(size, false);
    for (int m = 0; m < 8; ++m) {
      const auto id = static_cast<std::int32_t>(rng.NextUint64(size));
      ASSERT_EQ(marks.Mark(id), !expect[static_cast<std::size_t>(id)]);
      expect[static_cast<std::size_t>(id)] = true;
    }
    for (std::size_t id = 0; id < size; ++id) {
      ASSERT_EQ(marks.Marked(static_cast<std::int32_t>(id)), expect[id])
          << "round " << round << " id " << id;
    }
  }
}

TEST(TraversalWorkspaceTest, ReusedAcrossSizesWithoutStaleState) {
  // One workspace serves BFS runs over graphs of very different sizes, in
  // both directions (grow then shrink): distances and visit sets must match
  // the reference every round.
  const Graph small = Ring(9);
  const Graph large = Ring(257);
  TraversalWorkspace ws;
  Rng rng{11};
  for (int round = 0; round < 2000; ++round) {
    const Graph& g = (round % 3 == 0) ? large : small;
    const auto src = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
    BfsDistances(g.Csr(), src, ws);
    const std::vector<int> expect = ReferenceBfs(g, src);
    for (NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
         ++node) {
      ASSERT_EQ(ws.Dist(node), expect[static_cast<std::size_t>(node)])
          << "round " << round;
    }
    ASSERT_EQ(ws.VisitOrder().size(), g.NodeCount());
  }
}

TEST(TraversalScopeTest, NestedBorrowsGetDistinctWorkspaces) {
  // An outer traversal must survive inner traversals that borrow their own
  // scope — the exact shape of SamplePathStats, where net.Route() runs a BFS
  // while the caller still reads the outer distances.
  const Graph outer_graph = Ring(33);
  const Graph inner_graph = Ring(12);
  TraversalScope outer;
  BfsDistances(outer_graph.Csr(), 0, *outer);
  const std::vector<int> expect = ReferenceBfs(outer_graph, 0);
  for (int round = 0; round < 1000; ++round) {
    {
      TraversalScope inner;
      BfsDistances(inner_graph.Csr(),
                   static_cast<NodeId>(round % inner_graph.NodeCount()),
                   *inner);
      ASSERT_NE(&*inner, &*outer);
    }
    // Interleave full BFS wrappers too — they borrow from the same freelist.
    ShortestPath(outer_graph, 0,
                 static_cast<NodeId>(round % outer_graph.NodeCount()));
    for (NodeId node = 0;
         static_cast<std::size_t>(node) < outer_graph.NodeCount(); ++node) {
      ASSERT_EQ(outer->Dist(node), expect[static_cast<std::size_t>(node)])
          << "outer workspace clobbered in round " << round;
    }
  }
}

TEST(FlowScopeTest, RepeatedSolvesOnOneWorkspaceStayCorrect) {
  // The same flow workspace runs Dinic over alternating graphs thousands of
  // times; a ring always has pair connectivity 2.
  const Graph small = Ring(8);
  const Graph large = Ring(64);
  FlowScope ws;
  for (int round = 0; round < 2000; ++round) {
    const Graph& g = (round % 2 == 0) ? small : large;
    const auto dst =
        static_cast<NodeId>(1 + (round % (g.NodeCount() - 1)));
    ASSERT_EQ(EdgeConnectivity(g.Csr(), 0, dst, *ws), 2u) << "round " << round;
  }
}

}  // namespace
}  // namespace dcn::graph
