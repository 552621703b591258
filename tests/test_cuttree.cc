// Differential battery for the Gomory–Hu cut tree: every answer it gives
// must equal a per-pair solve of the reference Dinic (tests/reference.h,
// which shares no code with the batch kernel the tree runs on) — on all
// supported topology families, random graphs, and graphs with failures —
// and the all-pairs stats built from it must be exact, at any thread count.
#include "graph/cuttree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "common/parallel.h"
#include "common/rng.h"
#include "metrics/bisection.h"
#include "reference.h"
#include "topology/factory.h"

namespace dcn {
namespace {

graph::Graph RandomGraph(Rng& rng, std::size_t nodes, std::size_t edges) {
  graph::Graph g;
  for (std::size_t i = 0; i < nodes; ++i) g.AddNode(graph::NodeKind::kServer);
  for (std::size_t i = 1; i < nodes; ++i) {
    g.AddEdge(static_cast<graph::NodeId>(rng.NextUint64(i)),
              static_cast<graph::NodeId>(i));
  }
  for (std::size_t e = nodes - 1; e < edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    const auto v = static_cast<graph::NodeId>(rng.NextUint64(nodes));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

TEST(CutTreeTest, MatchesDinicOnRandomGraphs) {
  Rng rng{11};
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nodes = 6 + rng.NextUint64(18);
    const graph::Graph g = RandomGraph(rng, nodes, nodes * 2);
    const graph::CutTree tree = graph::BuildCutTree(g);
    for (graph::NodeId u = 0; static_cast<std::size_t>(u) < nodes; ++u) {
      for (graph::NodeId v = u + 1; static_cast<std::size_t>(v) < nodes; ++v) {
        EXPECT_EQ(tree.MinCut(u, v), ReferenceCut(g.Csr(), u, v))
            << "trial " << trial << ": " << u << " vs " << v;
      }
    }
  }
}

TEST(CutTreeTest, MatchesDinicUnderFailures) {
  Rng rng{13};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t nodes = 8 + rng.NextUint64(12);
    const graph::Graph g = RandomGraph(rng, nodes, nodes * 2);
    graph::FailureSet failures{g};
    for (int k = 0; k < 3; ++k) {
      failures.KillEdge(static_cast<graph::EdgeId>(rng.NextUint64(g.EdgeCount())));
    }
    failures.KillNode(static_cast<graph::NodeId>(rng.NextUint64(nodes)));
    const graph::CutTree tree = graph::BuildCutTree(g, &failures);
    for (graph::NodeId u = 0; static_cast<std::size_t>(u) < nodes; ++u) {
      for (graph::NodeId v = u + 1; static_cast<std::size_t>(v) < nodes; ++v) {
        EXPECT_EQ(tree.MinCut(u, v), ReferenceCut(g.Csr(), u, v, &failures))
            << "trial " << trial << ": " << u << " vs " << v;
      }
    }
  }
}

TEST(CutTreeTest, MatchesDinicWithDeadRoot) {
  // Node 0, every node's first parent, is dead: each component's first solve
  // has a dead sink and returns 0 at once, and its source side — the whole
  // live component — must still re-parent the rest of that component.
  Rng rng{19};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t nodes = 8 + rng.NextUint64(12);
    const graph::Graph g = RandomGraph(rng, nodes, nodes * 2);
    graph::FailureSet failures{g};
    failures.KillNode(0);
    failures.KillEdge(static_cast<graph::EdgeId>(rng.NextUint64(g.EdgeCount())));
    const graph::CutTree tree = graph::BuildCutTree(g, &failures);
    for (graph::NodeId u = 0; static_cast<std::size_t>(u) < nodes; ++u) {
      for (graph::NodeId v = u + 1; static_cast<std::size_t>(v) < nodes; ++v) {
        EXPECT_EQ(tree.MinCut(u, v), ReferenceCut(g.Csr(), u, v, &failures))
            << "trial " << trial << ": " << u << " vs " << v;
      }
    }
  }
}

TEST(CutTreeTest, IsolatedAndDeadNodesAreCutZeroLeaves) {
  graph::Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(graph::NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);  // node 3 isolated
  graph::FailureSet failures{g};
  failures.KillNode(2);
  const graph::CutTree tree = graph::BuildCutTree(g, &failures);
  EXPECT_EQ(tree.MinCut(0, 1), 1);
  EXPECT_EQ(tree.MinCut(0, 2), 0);  // dead
  EXPECT_EQ(tree.MinCut(0, 3), 0);  // isolated
  EXPECT_EQ(tree.MinCut(2, 3), 0);
}

// Brute-force twin of AllPairsCutStats: one reference Dinic per unordered
// server pair.
metrics::PairCutStats BruteAllPairs(const topo::Topology& net,
                                    const graph::FailureSet* failures) {
  const graph::CsrView& csr = net.Network().Csr();
  const auto servers = csr.Servers();
  metrics::PairCutStats stats;
  stats.min_cut = std::numeric_limits<std::int64_t>::max();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (std::size_t j = i + 1; j < servers.size(); ++j) {
      const std::int64_t cut = ReferenceCut(csr, servers[i], servers[j], failures);
      stats.cuts.Add(cut);
      stats.min_cut = std::min(stats.min_cut, cut);
      sum += cut;
      ++stats.pairs;
    }
  }
  stats.mean_cut = static_cast<double>(sum) / static_cast<double>(stats.pairs);
  return stats;
}

void ExpectSameStats(const metrics::PairCutStats& a,
                     const metrics::PairCutStats& b) {
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.min_cut, b.min_cut);
  EXPECT_EQ(a.mean_cut, b.mean_cut);  // both exact integer sums / pairs
  EXPECT_EQ(a.cuts.Buckets(), b.cuts.Buckets());
}

TEST(AllPairsCutStatsTest, ExactOnSmallTopologies) {
  for (const char* spec : {"abccc:n=2,k=1,c=2", "bcube:n=3,k=1", "fattree:k=4"}) {
    SCOPED_TRACE(spec);
    const auto net = topo::MakeTopology(spec);
    ExpectSameStats(metrics::AllPairsCutStats(*net), BruteAllPairs(*net, nullptr));
  }
}

TEST(AllPairsCutStatsTest, ExactUnderFailures) {
  const auto net = topo::MakeTopology("bcube:n=3,k=1");
  graph::FailureSet failures{net->Network()};
  failures.KillNode(net->Servers()[1]);  // a dead server
  for (graph::NodeId n = 0;
       static_cast<std::size_t>(n) < net->Network().NodeCount(); ++n) {
    if (net->Network().IsSwitch(n)) {  // and a dead switch
      failures.KillNode(n);
      break;
    }
  }
  failures.KillEdge(0);
  ExpectSameStats(metrics::AllPairsCutStats(*net, &failures),
                  BruteAllPairs(*net, &failures));
}

// Every supported family: the tree must answer sampled pairs exactly like a
// fresh per-pair reference Dinic (full all-pairs brute force would be
// quadratic in servers, so pairs are sampled on the larger defaults).
class CutTreeFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(CutTreeFamilies, TreeMatchesSampledDinic) {
  const auto net = topo::MakeTopology(GetParam());
  const graph::CsrView& csr = net->Network().Csr();
  const graph::CutTree tree = graph::BuildCutTree(net->Network());
  const auto servers = csr.Servers();
  Rng rng{0xc07 + servers.size()};
  for (int q = 0; q < 40; ++q) {
    const graph::NodeId u = servers[rng.NextUint64(servers.size())];
    graph::NodeId v = u;
    while (v == u) v = servers[rng.NextUint64(servers.size())];
    EXPECT_EQ(tree.MinCut(u, v), ReferenceCut(csr, u, v)) << u << " vs " << v;
  }
  // And the aggregate stats must cover every unordered server pair.
  const metrics::PairCutStats stats = metrics::AllPairsCutStats(*net);
  const auto s = static_cast<std::int64_t>(servers.size());
  EXPECT_EQ(stats.pairs, s * (s - 1) / 2);
  EXPECT_EQ(stats.cuts.Count(), stats.pairs);
  EXPECT_EQ(stats.cuts.Min(), stats.min_cut);
}

INSTANTIATE_TEST_SUITE_P(Families, CutTreeFamilies,
                         ::testing::ValuesIn(topo::SupportedSpecs()));

TEST(AllPairsCutStatsTest, ThreadCountInvariant) {
  const auto net = topo::MakeTopology("abccc:n=3,k=1,c=2");
  SetThreadCount(1);
  const metrics::PairCutStats serial = metrics::AllPairsCutStats(*net);
  for (int threads : {3, 7}) {
    SetThreadCount(threads);
    const metrics::PairCutStats parallel = metrics::AllPairsCutStats(*net);
    SCOPED_TRACE(threads);
    ExpectSameStats(serial, parallel);
  }
  SetThreadCount(0);
}

}  // namespace
}  // namespace dcn
