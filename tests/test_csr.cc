// CSR-vs-Graph equivalence battery.
//
// The CSR view (graph/csr.h) is a pure re-layout: every traversal over it
// must produce results bit-identical to the adjacency-list Graph it
// snapshots. This suite checks the mirror on the paper topologies plus
// random graphs, and cross-checks the allocation-free BFS/Dinic against
// straightforward reference implementations (the pre-CSR algorithms; the
// shared ones live in tests/reference.h), with and without failures.
#include "graph/csr.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/paths.h"
#include "graph/workspace.h"
#include "reference.h"
#include "topology/abccc.h"
#include "topology/bcube.h"
#include "topology/dcell.h"
#include "topology/fattree.h"
#include "topology/ficonn.h"

namespace dcn::graph {
namespace {

// Random connected plant: spanning tree plus chords, mixed node kinds,
// occasional parallel links.
Graph RandomGraph(Rng& rng) {
  Graph g;
  const std::size_t nodes = static_cast<std::size_t>(rng.NextInt(8, 40));
  for (std::size_t i = 0; i < nodes; ++i) {
    // At least two servers so path queries always have endpoints.
    const bool server = i < 2 || rng.NextBernoulli(0.6);
    g.AddNode(server ? NodeKind::kServer : NodeKind::kSwitch);
  }
  for (std::size_t i = 1; i < nodes; ++i) {
    g.AddEdge(static_cast<NodeId>(i),
              static_cast<NodeId>(rng.NextUint64(i)));
  }
  const std::size_t chords = static_cast<std::size_t>(rng.NextInt(0, 14));
  for (std::size_t e = 0; e < chords; ++e) {
    const auto u = static_cast<NodeId>(rng.NextUint64(nodes));
    const auto v = static_cast<NodeId>(rng.NextUint64(nodes));
    if (u != v) g.AddEdge(u, v);  // duplicates allowed: parallel links
  }
  return g;
}

// Every graph the battery runs on: one of each paper topology at small
// scale, plus random plants.
std::vector<std::pair<std::string, Graph>> TestGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("abccc", topo::Abccc{topo::AbcccParams{3, 1, 2}}.Network());
  graphs.emplace_back("bcube", topo::Bcube{3, 1}.Network());
  graphs.emplace_back("dcell", topo::Dcell{3, 1}.Network());
  graphs.emplace_back("fattree", topo::FatTree{4}.Network());
  graphs.emplace_back("ficonn", topo::FiConn{4, 1}.Network());
  Rng rng{20260805};
  for (int i = 0; i < 6; ++i) {
    graphs.emplace_back("random-" + std::to_string(i), RandomGraph(rng));
  }
  return graphs;
}

FailureSet RandomFailures(const Graph& g, Rng& rng) {
  FailureSet failures{g};
  for (NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount(); ++node) {
    if (rng.NextBernoulli(0.08)) failures.KillNode(node);
  }
  for (EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount(); ++edge) {
    if (rng.NextBernoulli(0.08)) failures.KillEdge(edge);
  }
  return failures;
}

// Reference shortest path: full BFS sweep (no early exit), then a parent
// walk-back. The production version stops the sweep the moment dst is
// settled; since a node's parent is fixed by its first discoverer, both must
// return the same hop sequence.
std::vector<NodeId> ReferenceShortestPath(const Graph& g, NodeId src,
                                          NodeId dst,
                                          const FailureSet* failures) {
  if (failures != nullptr &&
      (failures->NodeDead(src) || failures->NodeDead(dst))) {
    return {};
  }
  if (src == dst) return {src};
  std::vector<int> dist(g.NodeCount(), kUnreachable);
  std::vector<NodeId> parent(g.NodeCount(), kInvalidNode);
  std::deque<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  while (!queue.empty()) {
    const NodeId node = queue.front();
    queue.pop_front();
    for (const HalfEdge& half : g.Neighbors(node)) {
      if (failures != nullptr && !failures->HalfEdgeUsable(half)) continue;
      if (dist[static_cast<std::size_t>(half.to)] != kUnreachable) continue;
      dist[static_cast<std::size_t>(half.to)] =
          dist[static_cast<std::size_t>(node)] + 1;
      parent[static_cast<std::size_t>(half.to)] = node;
      queue.push_back(half.to);
    }
  }
  if (dist[static_cast<std::size_t>(dst)] == kUnreachable) return {};
  std::vector<NodeId> path;
  for (NodeId at = dst; at != kInvalidNode;
       at = parent[static_cast<std::size_t>(at)]) {
    path.push_back(at);
  }
  return {path.rbegin(), path.rend()};
}

TEST(CsrViewTest, MirrorsGraphStructure) {
  for (const auto& [name, g] : TestGraphs()) {
    SCOPED_TRACE(name);
    const CsrView& csr = g.Csr();
    ASSERT_EQ(csr.NodeCount(), g.NodeCount());
    ASSERT_EQ(csr.EdgeCount(), g.EdgeCount());
    ASSERT_EQ(csr.ServerCount(), g.ServerCount());

    std::int32_t server_rank = 0;
    for (NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
         ++node) {
      ASSERT_EQ(csr.KindOf(node), g.KindOf(node));
      ASSERT_EQ(csr.IsServer(node), g.IsServer(node));
      ASSERT_EQ(csr.Degree(node), g.Degree(node));
      if (g.IsServer(node)) {
        ASSERT_EQ(csr.ServerIndexOf(node), server_rank);
        ASSERT_EQ(csr.Servers()[static_cast<std::size_t>(server_rank)], node);
        ++server_rank;
      } else {
        ASSERT_EQ(csr.ServerIndexOf(node), -1);
      }
      // Neighbor slices must preserve the Graph's insertion order exactly —
      // traversal tie-breaks depend on it.
      const auto& expected = g.Neighbors(node);
      const auto actual = csr.Neighbors(node);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i].to, expected[i].to);
        ASSERT_EQ(actual[i].edge, expected[i].edge);
      }
    }
    for (EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount();
         ++edge) {
      ASSERT_EQ(csr.Endpoints(edge), g.Endpoints(edge));
    }
  }
}

TEST(CsrViewTest, FindEdgeMatchesGraph) {
  Rng rng{99};
  for (const auto& [name, g] : TestGraphs()) {
    SCOPED_TRACE(name);
    const CsrView& csr = g.Csr();
    for (int trial = 0; trial < 200; ++trial) {
      const auto u = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
      const auto v = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
      if (u == v) continue;
      ASSERT_EQ(csr.FindEdge(u, v), g.FindEdge(u, v));
      ASSERT_EQ(csr.Adjacent(u, v), g.Adjacent(u, v));
    }
    // And exhaustively along actual edges (both argument orders).
    for (EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount();
         ++edge) {
      const auto [u, v] = g.Endpoints(edge);
      ASSERT_EQ(csr.FindEdge(u, v), g.FindEdge(u, v));
      ASSERT_EQ(csr.FindEdge(v, u), g.FindEdge(v, u));
    }
  }
}

TEST(CsrEquivalenceTest, BfsDistancesMatchReference) {
  Rng rng{424242};
  for (const auto& [name, g] : TestGraphs()) {
    SCOPED_TRACE(name);
    const FailureSet failures = RandomFailures(g, rng);
    for (int trial = 0; trial < 8; ++trial) {
      const auto src = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
      ASSERT_EQ(BfsDistances(g, src), ReferenceBfs(g, src, nullptr));
      ASSERT_EQ(BfsDistances(g, src, &failures),
                ReferenceBfs(g, src, &failures));
    }
  }
}

TEST(CsrEquivalenceTest, ShortestPathMatchesFullSweepReference) {
  Rng rng{31337};
  for (const auto& [name, g] : TestGraphs()) {
    SCOPED_TRACE(name);
    const FailureSet failures = RandomFailures(g, rng);
    for (int trial = 0; trial < 24; ++trial) {
      const auto src = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
      const auto dst = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
      ASSERT_EQ(ShortestPath(g, src, dst),
                ReferenceShortestPath(g, src, dst, nullptr));
      ASSERT_EQ(ShortestPath(g, src, dst, &failures),
                ReferenceShortestPath(g, src, dst, &failures));
    }
  }
}

TEST(CsrEquivalenceTest, ReachabilityAndConnectivityMatchReference) {
  Rng rng{777};
  for (const auto& [name, g] : TestGraphs()) {
    SCOPED_TRACE(name);
    const FailureSet failures = RandomFailures(g, rng);
    const auto src = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
    std::size_t expected = 0;
    for (const int dist : ReferenceBfs(g, src, &failures)) {
      if (dist != kUnreachable) ++expected;
    }
    ASSERT_EQ(ReachableCount(g, src, &failures), expected);

    std::size_t live = 0, reached_from_first_live = 0;
    NodeId first_live = kInvalidNode;
    for (NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
         ++node) {
      if (!failures.NodeDead(node)) {
        ++live;
        if (first_live == kInvalidNode) first_live = node;
      }
    }
    if (live > 0) {
      for (const int dist : ReferenceBfs(g, first_live, &failures)) {
        if (dist != kUnreachable) ++reached_from_first_live;
      }
    }
    ASSERT_EQ(IsConnected(g, &failures),
              live == 0 || reached_from_first_live == live);
  }
}

TEST(CsrEquivalenceTest, MinCutsAgreeAcrossAllSolvers) {
  Rng rng{5150};
  for (const auto& [name, g] : TestGraphs()) {
    SCOPED_TRACE(name);
    const CsrView& csr = g.Csr();
    const FailureSet failures = RandomFailures(g, rng);
    FlowScope ws;
    for (int trial = 0; trial < 6; ++trial) {
      const auto src = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
      const auto dst = static_cast<NodeId>(rng.NextUint64(g.NodeCount()));
      if (src == dst) continue;
      for (const FailureSet* f : {static_cast<const FailureSet*>(nullptr),
                                  &failures}) {
        const auto cut =
            static_cast<std::size_t>(ReferenceCut(csr, src, dst, f));
        {
          EdgeConnectivityBatch batch{csr, *ws, f};
          ASSERT_EQ(batch.Connectivity(src, dst), cut);
        }
        const auto paths = EdgeDisjointPaths(g, src, dst,
                                             static_cast<std::size_t>(-1), f);
        ASSERT_EQ(paths.size(), cut);
        // The workspace overload must return byte-identical paths.
        ASSERT_EQ(EdgeDisjointPaths(csr, src, dst, *ws,
                                    static_cast<std::size_t>(-1), f),
                  paths);
        // The set-to-set cut on singleton sides is the same cut.
        ASSERT_EQ(MinCutBetween(g, std::vector<NodeId>{src},
                                std::vector<NodeId>{dst}, f),
                  static_cast<std::int64_t>(cut));
        // Each path walks real, live, pairwise-disjoint links src..dst.
        EpochMarks used;
        used.Begin(g.EdgeCount());
        for (const auto& path : paths) {
          ASSERT_EQ(path.front(), src);
          ASSERT_EQ(path.back(), dst);
          for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            EdgeId link = kInvalidEdge;
            for (const HalfEdge& half : g.Neighbors(path[i])) {
              if (half.to != path[i + 1]) continue;
              if (f != nullptr && f->EdgeDead(half.edge)) continue;
              if (used.Marked(half.edge)) continue;
              link = half.edge;
              break;
            }
            ASSERT_NE(link, kInvalidEdge)
                << "path reuses or fabricates a link";
            used.Mark(link);
            if (f != nullptr) {
              ASSERT_FALSE(f->NodeDead(path[i]));
              ASSERT_FALSE(f->NodeDead(path[i + 1]));
            }
          }
        }
      }
    }
  }
}

TEST(CsrCacheTest, InvalidatedByMutationAndStableWithoutIt) {
  Graph g;
  const NodeId a = g.AddNode(NodeKind::kServer);
  const NodeId b = g.AddNode(NodeKind::kServer);
  g.AddEdge(a, b);
  const CsrView* first = &g.Csr();
  // No mutation: same snapshot object.
  ASSERT_EQ(&g.Csr(), first);
  ASSERT_EQ(g.Csr().EdgeCount(), 1u);

  const NodeId c = g.AddNode(NodeKind::kSwitch);
  g.AddEdge(b, c);
  const CsrView& rebuilt = g.Csr();
  ASSERT_EQ(rebuilt.NodeCount(), 3u);
  ASSERT_EQ(rebuilt.EdgeCount(), 2u);
  ASSERT_TRUE(rebuilt.Adjacent(b, c));
}

TEST(CsrCacheTest, CopiesAndMovesKeepGraphAndViewConsistent) {
  Graph original;
  const NodeId a = original.AddNode(NodeKind::kServer);
  const NodeId b = original.AddNode(NodeKind::kServer);
  original.AddEdge(a, b);
  original.Csr();

  // Mutating a copy must not disturb the original's snapshot.
  Graph copy = original;
  copy.AddNode(NodeKind::kSwitch);
  ASSERT_EQ(copy.Csr().NodeCount(), 3u);
  ASSERT_EQ(original.Csr().NodeCount(), 2u);

  Graph moved = std::move(copy);
  ASSERT_EQ(moved.Csr().NodeCount(), 3u);
  ASSERT_TRUE(moved.Csr().Adjacent(a, b));

  Graph assigned;
  assigned = moved;
  ASSERT_EQ(assigned.Csr().NodeCount(), 3u);
}

}  // namespace
}  // namespace dcn::graph
