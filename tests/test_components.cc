// Component labeling and incremental forest repair: the repair engine must
// produce the same partition as a from-scratch labeling for any kill set,
// and the resilience metrics built on it must return byte-identical values
// to the per-source-BFS implementation they replaced.
#include "graph/components.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "metrics/resilience.h"
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

// Same partition, allowing different component ids (Repair re-uses intact
// ids and mints fresh ones for split-off fragments, so ids need not match a
// canonical relabeling).
void ExpectSamePartition(const graph::ComponentSet& got,
                         const graph::ComponentSet& want) {
  ASSERT_EQ(got.comp.size(), want.comp.size());
  std::map<std::int32_t, std::int32_t> fwd;
  std::map<std::int32_t, std::int32_t> bwd;
  for (std::size_t n = 0; n < got.comp.size(); ++n) {
    const std::int32_t a = got.comp[n];
    const std::int32_t b = want.comp[n];
    ASSERT_EQ(a < 0, b < 0) << "node " << n << " dead/live mismatch";
    if (a < 0) continue;
    const auto [fit, finserted] = fwd.emplace(a, b);
    EXPECT_EQ(fit->second, b) << "node " << n << " splits component " << a;
    const auto [bit, binserted] = bwd.emplace(b, a);
    EXPECT_EQ(bit->second, a) << "node " << n << " merges into component " << b;
  }
}

TEST(LabelComponentsTest, MatchesBfsReachability) {
  Rng rng{5};
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nodes = 10 + rng.NextUint64(30);
    const graph::Graph g = RandomGraph(rng, nodes, nodes + nodes / 2);
    graph::FailureSet failures{g};
    for (int k = 0; k < 5; ++k) {
      failures.KillEdge(static_cast<graph::EdgeId>(rng.NextUint64(g.EdgeCount())));
    }
    failures.KillNode(static_cast<graph::NodeId>(rng.NextUint64(nodes)));
    graph::ComponentSet comp;
    graph::LabelComponents(g.Csr(), &failures, comp);
    graph::TraversalScope ws;
    for (graph::NodeId src = 0; static_cast<std::size_t>(src) < nodes; ++src) {
      if (failures.NodeDead(src)) {
        EXPECT_EQ(comp.ComponentOf(src), graph::kDeadComponent);
        continue;
      }
      graph::BfsDistances(g.Csr(), src, *ws, &failures);
      for (graph::NodeId dst = 0; static_cast<std::size_t>(dst) < nodes; ++dst) {
        if (failures.NodeDead(dst)) continue;
        EXPECT_EQ(comp.SameComponent(src, dst), ws->Visited(dst))
            << "trial " << trial << ": " << src << " vs " << dst;
      }
    }
  }
}

TEST(LabelComponentsTest, IdsAreCanonical) {
  // Two triangles, no bridge: ids ascend with each component's lowest node.
  graph::Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(graph::NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  graph::ComponentSet comp;
  graph::LabelComponents(g.Csr(), nullptr, comp);
  EXPECT_EQ(comp.count, 2u);
  for (int n = 0; n < 3; ++n) EXPECT_EQ(comp.ComponentOf(n), 0);
  for (int n = 3; n < 6; ++n) EXPECT_EQ(comp.ComponentOf(n), 1);
}

TEST(ComponentForestTest, RepairMatchesFullLabelingOnRandomKills) {
  Rng rng{23};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t nodes = 12 + rng.NextUint64(40);
    const graph::Graph g = RandomGraph(rng, nodes, nodes + nodes / 2);
    const graph::CsrView& csr = g.Csr();
    const graph::ComponentForest forest{csr};
    ExpectSamePartition(forest.Intact(), [&] {
      graph::ComponentSet full;
      graph::LabelComponents(csr, nullptr, full);
      return full;
    }());

    graph::ComponentRepairScratch scratch;
    graph::ComponentSet repaired;
    for (int kill_trial = 0; kill_trial < 8; ++kill_trial) {
      graph::FailureSet failures{g};
      std::vector<graph::NodeId> dead_nodes;
      std::vector<graph::EdgeId> dead_edges;
      const std::size_t node_kills = rng.NextUint64(4);
      const std::size_t edge_kills = rng.NextUint64(5);
      for (std::size_t k = 0; k < node_kills; ++k) {
        const auto n = static_cast<graph::NodeId>(rng.NextUint64(nodes));
        if (failures.NodeDead(n)) continue;
        failures.KillNode(n);
        dead_nodes.push_back(n);
      }
      for (std::size_t k = 0; k < edge_kills; ++k) {
        const auto e = static_cast<graph::EdgeId>(rng.NextUint64(g.EdgeCount()));
        if (failures.EdgeDead(e)) continue;
        failures.KillEdge(e);
        dead_edges.push_back(e);
      }
      forest.Repair(dead_nodes, dead_edges, failures, scratch, repaired);
      graph::ComponentSet full;
      graph::LabelComponents(csr, &failures, full);
      SCOPED_TRACE("trial " + std::to_string(trial) + " kill " +
                   std::to_string(kill_trial));
      ExpectSamePartition(repaired, full);
    }
  }
}

class ComponentFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(ComponentFamilies, RepairMatchesFullLabelingPerSwitchKill) {
  const auto net = topo::MakeTopology(GetParam());
  const graph::CsrView& csr = net->Network().Csr();
  const graph::ComponentForest forest{csr};
  graph::ComponentRepairScratch scratch;
  graph::ComponentSet repaired;
  graph::ComponentSet full;
  std::size_t checked = 0;
  for (graph::NodeId node = 0;
       static_cast<std::size_t>(node) < csr.NodeCount() && checked < 40;
       ++node) {
    if (!csr.IsSwitch(node)) continue;
    ++checked;
    graph::FailureSet failures{net->Network()};
    failures.KillNode(node);
    forest.Repair({&node, 1}, {}, failures, scratch, repaired);
    graph::LabelComponents(csr, &failures, full);
    SCOPED_TRACE("switch " + std::to_string(node));
    ExpectSamePartition(repaired, full);
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Families, ComponentFamilies,
                         ::testing::ValuesIn(topo::SupportedSpecs()));

// --- Byte-identity of the metrics against tests/reference.h --------------

TEST(ResilienceBitIdentityTest, PairDisconnectionMatchesBfsReference) {
  const auto net = topo::MakeTopology("abccc:n=3,k=1,c=2");
  Rng seeds{0xfeed};
  // Cover both historical regimes (per-source BFS and MS-BFS lane batches)
  // and several failure shapes; every fraction must match to the last bit.
  for (const std::size_t sample_pairs : {5ul, 64ul, 400ul, 700ul}) {
    for (int f = 0; f < 4; ++f) {
      graph::FailureSet failures{net->Network()};
      for (int k = 0; k <= f; ++k) {
        failures.KillNode(
            static_cast<graph::NodeId>(seeds.NextUint64(net->Network().NodeCount())));
        failures.KillEdge(
            static_cast<graph::EdgeId>(seeds.NextUint64(net->Network().EdgeCount())));
      }
      const std::uint64_t seed = seeds();
      Rng a{seed};
      Rng b{seed};
      EXPECT_EQ(
          metrics::PairDisconnectionFraction(*net, failures, sample_pairs, a),
          ReferencePairDisconnection(*net, failures, sample_pairs, b))
          << "pairs=" << sample_pairs << " f=" << f;
    }
  }
}

TEST(ResilienceBitIdentityTest, WorstSingleSwitchMatchesBfsReference) {
  for (const char* spec : {"abccc:n=3,k=1,c=2", "bcube:n=3,k=1", "fattree:k=4"}) {
    SCOPED_TRACE(spec);
    const auto net = topo::MakeTopology(spec);
    Rng a{42};
    Rng b{42};
    EXPECT_EQ(metrics::WorstSingleSwitchDisconnection(*net, 96, 12, a),
              ReferenceWorstSingleSwitch(*net, 96, 12, b));
  }
}

TEST(ResilienceBitIdentityTest, ThreadCountInvariant) {
  const auto net = topo::MakeTopology("bcube:n=3,k=1");
  SetThreadCount(1);
  Rng r1{7};
  const double serial = metrics::WorstSingleSwitchDisconnection(*net, 128, 16, r1);
  for (int threads : {3, 7}) {
    SetThreadCount(threads);
    Rng rn{7};
    EXPECT_EQ(serial, metrics::WorstSingleSwitchDisconnection(*net, 128, 16, rn))
        << "threads=" << threads;
  }
  SetThreadCount(0);
}

}  // namespace
}  // namespace dcn
