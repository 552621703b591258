#include "routing/broadcast.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include <tuple>

#include "common/rng.h"
#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/bcube.h"
#include "topology/dcell.h"

namespace dcn::routing {
namespace {

using topo::Abccc;
using topo::AbcccParams;

class BroadcastSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  AbcccParams P() const {
    const auto [n, k, c] = GetParam();
    return AbcccParams{n, k, c};
  }
};

TEST_P(BroadcastSweep, CoversEveryServer) {
  const Abccc net{P()};
  const SpanningTree tree = AbcccBroadcastTree(net, 0);
  EXPECT_EQ(tree.CoveredCount(), net.ServerCount());
  EXPECT_EQ(tree.root, 0);
}

TEST_P(BroadcastSweep, ParentChainsAreConsistent) {
  const Abccc net{P()};
  dcn::Rng rng{31};
  const auto servers = net.Servers();
  const graph::NodeId root = servers[rng.NextUint64(servers.size())];
  const SpanningTree tree = AbcccBroadcastTree(net, root);
  const graph::Graph& g = net.Network();
  for (const graph::NodeId server : servers) {
    if (server == root) {
      EXPECT_EQ(tree.parent[server], graph::kInvalidNode);
      EXPECT_EQ(tree.depth[server], 0);
      continue;
    }
    const graph::NodeId parent = tree.parent[server];
    const graph::NodeId via = tree.via[server];
    ASSERT_NE(parent, graph::kInvalidNode);
    ASSERT_NE(via, graph::kInvalidNode);
    EXPECT_TRUE(g.IsSwitch(via));
    EXPECT_TRUE(g.Adjacent(parent, via));
    EXPECT_TRUE(g.Adjacent(via, server));
    EXPECT_EQ(tree.depth[server], tree.depth[parent] + 2);
  }
}

TEST_P(BroadcastSweep, PathToIsAValidRoute) {
  const Abccc net{P()};
  const SpanningTree tree = AbcccBroadcastTree(net, 0);
  dcn::Rng rng{32};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 20; ++trial) {
    const graph::NodeId target = servers[rng.NextUint64(servers.size())];
    const Route path = tree.PathTo(target);
    ASSERT_FALSE(path.Empty());
    EXPECT_EQ(path.Src(), 0);
    EXPECT_EQ(path.Dst(), target);
    EXPECT_EQ(ValidateRoute(net.Network(), path), "");
    EXPECT_EQ(static_cast<int>(path.LinkCount()), tree.depth[target]);
  }
}

TEST_P(BroadcastSweep, DepthIsLinearInOrder) {
  const AbcccParams p = P();
  const Abccc net{p};
  const SpanningTree tree = AbcccBroadcastTree(net, 0);
  // Worst case per level stage: 2 links across the level switch plus 2 links
  // of crossbar spread, after the initial 2-link row spread.
  EXPECT_LE(tree.MaxDepth(), 4 * (p.k + 1) + 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BroadcastSweep,
                         ::testing::Values(std::tuple{2, 1, 2}, std::tuple{2, 2, 2},
                                           std::tuple{3, 1, 2}, std::tuple{3, 2, 3},
                                           std::tuple{4, 1, 2}, std::tuple{4, 2, 3},
                                           std::tuple{4, 2, 4}, std::tuple{5, 1, 3},
                                           std::tuple{2, 4, 2}, std::tuple{6, 1, 2},
                                           std::tuple{3, 3, 2}, std::tuple{4, 3, 3}));

TEST(BroadcastTest, TreeLinkCountSharesUplinks) {
  // In one row of m servers, crossbar fan-out from the root uses m links
  // (1 uplink + m-1 downlinks), not 2(m-1).
  const Abccc net{AbcccParams{2, 2, 2}};  // m = 3
  const SpanningTree tree = AbcccBroadcastTree(net, 0);
  const std::size_t links = TreeLinkCount(net.Network(), tree);
  // A spanning tree over S servers has S-1 parent relations, each 2 links,
  // but shared relay uplinks reduce the distinct-link count strictly below.
  EXPECT_LT(links, 2 * (net.ServerCount() - 1));
  EXPECT_GE(links, net.ServerCount() - 1);
}

TEST(MulticastTest, ContainsTargetsAndTheirAncestors) {
  const Abccc net{AbcccParams{4, 2, 2}};
  dcn::Rng rng{33};
  const auto servers = net.Servers();
  std::vector<graph::NodeId> targets;
  for (int i = 0; i < 5; ++i) {
    targets.push_back(servers[rng.NextUint64(servers.size())]);
  }
  const SpanningTree tree = AbcccMulticastTree(net, 0, targets);
  for (const graph::NodeId target : targets) {
    EXPECT_TRUE(tree.Contains(target));
    // Walk to the root through kept nodes only.
    graph::NodeId at = target;
    int steps = 0;
    while (at != 0) {
      at = tree.parent[at];
      ASSERT_NE(at, graph::kInvalidNode);
      ASSERT_TRUE(tree.Contains(at));
      ASSERT_LT(++steps, 1000);
    }
  }
}

TEST(MulticastTest, PrunedTreeIsSmallerThanBroadcast) {
  const Abccc net{AbcccParams{4, 2, 2}};
  const std::vector<graph::NodeId> targets{1, 2};
  const SpanningTree full = AbcccBroadcastTree(net, 0);
  const SpanningTree pruned = AbcccMulticastTree(net, 0, targets);
  EXPECT_LT(pruned.CoveredCount(), full.CoveredCount());
  EXPECT_LE(TreeLinkCount(net.Network(), pruned),
            TreeLinkCount(net.Network(), full));
  EXPECT_GE(pruned.CoveredCount(), 3u);  // root + 2 targets
}

TEST(MulticastTest, DepthMatchesBroadcastDepth) {
  const Abccc net{AbcccParams{4, 1, 2}};
  const SpanningTree full = AbcccBroadcastTree(net, 0);
  const std::vector<graph::NodeId> targets{7};
  const SpanningTree pruned = AbcccMulticastTree(net, 0, targets);
  EXPECT_EQ(pruned.depth[7], full.depth[7]);
}

TEST(MulticastTest, InvalidTargetThrows) {
  const Abccc net{AbcccParams{4, 1, 2}};
  EXPECT_THROW(
      AbcccMulticastTree(net, 0, std::vector<graph::NodeId>{graph::kInvalidNode}),
      dcn::InvalidArgument);
}

TEST(BcubeBroadcastTest, CoversEveryServerAtDepthTwoPerLevel) {
  const topo::Bcube net{topo::BcubeParams{4, 2}};
  const SpanningTree tree = AbcccBroadcastTree(net, 0);
  EXPECT_EQ(tree.CoveredCount(), net.ServerCount());
  EXPECT_EQ(tree.MaxDepth(), 2 * (net.Params().Order() + 1));
  const graph::Graph& g = net.Network();
  for (const graph::NodeId server : net.Servers()) {
    if (server == tree.root) continue;
    EXPECT_TRUE(g.Adjacent(tree.parent[server], tree.via[server]));
    EXPECT_TRUE(g.Adjacent(tree.via[server], server));
    EXPECT_EQ(tree.depth[server], tree.depth[tree.parent[server]] + 2);
  }
}

TEST(BcubeBroadcastTest, PathsAreValidRoutes) {
  const topo::Bcube net{topo::BcubeParams{3, 1}};
  dcn::Rng rng{34};
  const SpanningTree tree = AbcccBroadcastTree(net, 4);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::NodeId target =
        net.Servers()[rng.NextUint64(net.ServerCount())];
    const Route path = tree.PathTo(target);
    EXPECT_EQ(ValidateRoute(net.Network(), path), "");
  }
}

TEST(BcubeBroadcastTest, RootedAnywhere) {
  const topo::Bcube net{topo::BcubeParams{2, 3}};
  for (const graph::NodeId root : net.Servers()) {
    const SpanningTree tree = AbcccBroadcastTree(net, root);
    EXPECT_EQ(tree.CoveredCount(), net.ServerCount());
    EXPECT_EQ(tree.root, root);
  }
}

TEST(FallbackBroadcastTest, CoversAllSurvivorsUnderFailures) {
  const Abccc net{AbcccParams{4, 2, 2}};
  graph::FailureSet failures{net.Network()};
  // Kill a level switch and a server.
  failures.KillNode(net.LevelSwitchAt(0, topo::Digits{0, 0, 0}));
  failures.KillNode(5);
  const SpanningTree tree =
      FallbackBroadcastTree(net.Network(), 0, &failures);
  std::size_t live_servers = 0;
  for (const graph::NodeId server : net.Servers()) {
    if (!failures.NodeDead(server)) ++live_servers;
  }
  EXPECT_EQ(tree.CoveredCount(), live_servers);  // network still connected
  dcn::Rng rng{44};
  for (int trial = 0; trial < 15; ++trial) {
    const graph::NodeId target =
        net.Servers()[rng.NextUint64(net.ServerCount())];
    if (failures.NodeDead(target)) continue;
    const Route path = tree.PathTo(target);
    EXPECT_EQ(ValidateRoute(net.Network(), path, &failures), "");
  }
}

TEST(FallbackBroadcastTest, HealthyFallbackMatchesBfsDepths) {
  const Abccc net{AbcccParams{3, 1, 2}};
  const SpanningTree tree = FallbackBroadcastTree(net.Network(), 0);
  EXPECT_EQ(tree.CoveredCount(), net.ServerCount());
  // Depths are BFS-optimal, so never exceed the structured tree's.
  const SpanningTree structured = AbcccBroadcastTree(net, 0);
  for (const graph::NodeId server : net.Servers()) {
    EXPECT_LE(tree.depth[server], structured.depth[server]) << server;
  }
}

TEST(FallbackBroadcastTest, HandlesDirectServerLinks) {
  // DCell has direct server-server links: via must be kInvalidNode there and
  // PathTo/TreeLinkCount must handle it.
  const dcn::topo::Dcell dcell{4, 1};
  const SpanningTree tree = FallbackBroadcastTree(dcell.Network(), 0);
  EXPECT_EQ(tree.CoveredCount(), dcell.ServerCount());
  bool saw_direct = false;
  for (const graph::NodeId server : dcell.Servers()) {
    if (server == 0) continue;
    if (tree.via[server] == graph::kInvalidNode) saw_direct = true;
    const Route path = tree.PathTo(server);
    EXPECT_EQ(ValidateRoute(dcell.Network(), path), "");
  }
  EXPECT_TRUE(saw_direct);
  EXPECT_GT(TreeLinkCount(dcell.Network(), tree), 0u);
}

TEST(FallbackBroadcastTest, DeadRootRejected) {
  const Abccc net{AbcccParams{2, 1, 2}};
  graph::FailureSet failures{net.Network()};
  failures.KillNode(0);
  EXPECT_THROW(FallbackBroadcastTree(net.Network(), 0, &failures),
               dcn::InvalidArgument);
  EXPECT_THROW(FallbackBroadcastTree(net.Network(), net.CrossbarAt(0)),
               dcn::InvalidArgument);
}

}  // namespace
}  // namespace dcn::routing
