// Metamorphic relation: relabeling. Node ids and link order are choices of
// an encoding, so every metric must be a function of the graph alone. Each
// cube is written out as a CustomTopology text under a seeded random node-id
// permutation, with its links shuffled and each link's endpoints swapped at
// random, parsed back, and measured again: path statistics, all-pairs cuts,
// the bisection cut and the component partition under a failure set must
// all equal the original's exactly. The relabeled graph shares no node id,
// edge id or adjacency order with the original, so any dependence of a
// kernel on them shows here.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/components.h"
#include "graph/paths.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "topology/abccc.h"
#include "topology/custom.h"

namespace dcn {
namespace {

using graph::EdgeId;
using graph::NodeId;

struct Relabeled {
  topo::CustomTopology net;
  std::vector<NodeId> node_map;  // original id -> relabeled id
  std::vector<EdgeId> edge_map;  // original edge -> relabeled edge
};

Relabeled Relabel(const topo::Topology& net, Rng& rng) {
  const graph::Graph& g = net.Network();
  std::vector<NodeId> node_map(g.NodeCount());
  std::iota(node_map.begin(), node_map.end(), NodeId{0});
  rng.Shuffle(node_map);
  std::vector<NodeId> original_of(g.NodeCount());
  for (std::size_t n = 0; n < g.NodeCount(); ++n) {
    original_of[static_cast<std::size_t>(node_map[n])] = static_cast<NodeId>(n);
  }
  std::vector<EdgeId> link_order(g.EdgeCount());  // relabeled edge -> original
  std::iota(link_order.begin(), link_order.end(), EdgeId{0});
  rng.Shuffle(link_order);

  std::ostringstream text;
  for (std::size_t id = 0; id < g.NodeCount(); ++id) {
    text << "node " << id << (g.IsServer(original_of[id]) ? " server\n" : " switch\n");
  }
  std::vector<EdgeId> edge_map(g.EdgeCount());
  for (std::size_t e = 0; e < link_order.size(); ++e) {
    auto [u, v] = g.Endpoints(link_order[e]);
    if (rng.NextBernoulli(0.5)) std::swap(u, v);
    text << "link " << node_map[static_cast<std::size_t>(u)] << ' '
         << node_map[static_cast<std::size_t>(v)] << '\n';
    edge_map[static_cast<std::size_t>(link_order[e])] = static_cast<EdgeId>(e);
  }
  return {topo::CustomTopology::FromString(text.str(), "Relabeled"), std::move(node_map),
          std::move(edge_map)};
}

std::vector<NodeId> MapNodes(const std::vector<NodeId>& nodes,
                             const std::vector<NodeId>& node_map) {
  std::vector<NodeId> out;
  out.reserve(nodes.size());
  for (const NodeId n : nodes) out.push_back(node_map[static_cast<std::size_t>(n)]);
  return out;
}

class RelabelingTest : public ::testing::TestWithParam<int> {
 protected:
  // ABCCC(3,2,2), and a mixed-radix cube (spec radices 4.2.3, c = 2) whose
  // role blocks differ in size.
  topo::Abccc Cube() const {
    return GetParam() == 0 ? topo::Abccc{topo::AbcccParams{3, 2, 2}}
                           : topo::Abccc{topo::GeneralAbcccParams{{3, 2, 4}, 2}};
  }
};

TEST_P(RelabelingTest, PathStatsAreUnchanged) {
  const topo::Abccc net = Cube();
  Rng rng{0x5eed00 + static_cast<std::uint64_t>(GetParam())};
  const Relabeled relabeled = Relabel(net, rng);
  const metrics::ExactPathStats want = metrics::ExactServerPathStats(net);
  const metrics::ExactPathStats got = metrics::ExactServerPathStats(relabeled.net);
  EXPECT_TRUE(got.connected);
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.pairs_at_distance, want.pairs_at_distance);
  EXPECT_EQ(got.diameter, want.diameter);
  EXPECT_EQ(got.radius, want.radius);
  EXPECT_EQ(got.average, want.average);
}

TEST_P(RelabelingTest, CutsAreUnchanged) {
  const topo::Abccc net = Cube();
  Rng rng{0xc075 + static_cast<std::uint64_t>(GetParam())};
  const Relabeled relabeled = Relabel(net, rng);

  const metrics::PairCutStats want = metrics::AllPairsCutStats(net);
  const metrics::PairCutStats got = metrics::AllPairsCutStats(relabeled.net);
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.min_cut, want.min_cut);
  EXPECT_EQ(got.mean_cut, want.mean_cut);
  EXPECT_EQ(got.cuts.Buckets(), want.cuts.Buckets());

  const auto [side_a, side_b] = net.BisectionHalves();
  const std::int64_t bisection = graph::MinCutBetween(net.Network(), side_a, side_b);
  EXPECT_GT(bisection, 0);
  EXPECT_EQ(graph::MinCutBetween(relabeled.net.Network(),
                                 MapNodes(side_a, relabeled.node_map),
                                 MapNodes(side_b, relabeled.node_map)),
            bisection);
}

TEST_P(RelabelingTest, ComponentsUnderFailuresAreUnchanged) {
  const topo::Abccc net = Cube();
  Rng rng{0xfa11 + static_cast<std::uint64_t>(GetParam())};
  const Relabeled relabeled = Relabel(net, rng);
  const graph::Graph& g = net.Network();

  // Enough switch and link kills to split the network into many pieces.
  graph::FailureSet failures{g};
  graph::FailureSet mapped{relabeled.net.Network()};
  for (NodeId n = 0; static_cast<std::size_t>(n) < g.NodeCount(); ++n) {
    if (g.IsSwitch(n) && rng.NextBernoulli(0.5)) {
      failures.KillNode(n);
      mapped.KillNode(relabeled.node_map[static_cast<std::size_t>(n)]);
    }
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < g.EdgeCount(); ++e) {
    if (rng.NextBernoulli(0.2)) {
      failures.KillEdge(e);
      mapped.KillEdge(relabeled.edge_map[static_cast<std::size_t>(e)]);
    }
  }

  graph::ComponentSet want;
  graph::LabelComponents(g.Csr(), &failures, want);
  graph::ComponentSet got;
  graph::LabelComponents(relabeled.net.Network().Csr(), &mapped, got);
  EXPECT_GT(want.count, 1u);
  EXPECT_EQ(got.count, want.count);
  // Same partition: the component ids correspond one to one.
  std::vector<std::int32_t> image(want.count, graph::kDeadComponent);
  std::vector<std::int32_t> preimage(got.count, graph::kDeadComponent);
  for (std::size_t n = 0; n < g.NodeCount(); ++n) {
    const std::int32_t from = want.comp[n];
    const std::int32_t to = got.ComponentOf(relabeled.node_map[n]);
    ASSERT_EQ(from < 0, to < 0) << n;
    if (from < 0) continue;
    if (image[static_cast<std::size_t>(from)] == graph::kDeadComponent) {
      image[static_cast<std::size_t>(from)] = to;
    }
    if (preimage[static_cast<std::size_t>(to)] == graph::kDeadComponent) {
      preimage[static_cast<std::size_t>(to)] = from;
    }
    ASSERT_EQ(image[static_cast<std::size_t>(from)], to) << n;
    ASSERT_EQ(preimage[static_cast<std::size_t>(to)], from) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Cubes, RelabelingTest, ::testing::Values(0, 1));

}  // namespace
}  // namespace dcn
