// GeneralABCCC: the cube algebra with per-level radices (topology/implicit.h),
// materialized through topo::Abccc.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "routing/broadcast.h"
#include "routing/forwarding.h"
#include "routing/multipath.h"
#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/expansion.h"

namespace dcn::topo {
namespace {

TEST(GeneralAbcccParamsTest, Validation) {
  EXPECT_NO_THROW((GeneralAbcccParams{{2, 2}, 2}.Validate()));
  EXPECT_THROW((GeneralAbcccParams{{}, 2}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((GeneralAbcccParams{{2, 1}, 2}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((GeneralAbcccParams{{2, 2}, 1}.Validate()), dcn::InvalidArgument);
}

TEST(GeneralAbcccParamsTest, LinkTotalOverflowIsRejected) {
  // 2^60 rows of one server each (m = 1) fit 64 bits; 59 levels of links
  // per row do not.
  std::vector<int> radices(58, 2);
  radices.push_back(4);
  const GeneralAbcccParams params{radices, 60};
  EXPECT_EQ(params.RowLength(), 1);
  EXPECT_EQ(params.ServerTotal(), std::uint64_t{1} << 60);
  EXPECT_THROW(params.Validate(), dcn::InvalidArgument);
}

TEST(GeneralAbcccParamsTest, MixedRadixCounts) {
  // radices [4, 3, 2] (little-endian: level0=4, level1=3, level2=2), c=2.
  const GeneralAbcccParams p{{4, 3, 2}, 2};
  EXPECT_EQ(p.Order(), 2);
  EXPECT_EQ(p.RowLength(), 3);
  EXPECT_EQ(p.RowCount(), 24u);
  EXPECT_EQ(p.ServerTotal(), 72u);
  EXPECT_EQ(p.LevelSwitchCount(0), 6u);   // 3*2
  EXPECT_EQ(p.LevelSwitchCount(1), 8u);   // 4*2
  EXPECT_EQ(p.LevelSwitchCount(2), 12u);  // 4*3
  EXPECT_EQ(p.LevelSwitchTotal(), 26u);
  EXPECT_EQ(p.CrossbarTotal(), 24u);
  EXPECT_EQ(p.LinkTotal(), 3u * 24u + 72u);
}

TEST(GeneralAbcccTest, RowDigitsRoundTrip) {
  const ImplicitCube cube{GeneralAbcccParams{{4, 3, 2}, 2}};
  for (std::uint64_t row = 0; row < cube.Params().RowCount(); ++row) {
    EXPECT_EQ(cube.RowIndex(cube.RowDigits(row)), row);
  }
  EXPECT_THROW(cube.RowIndex(Digits{0, 3, 0}), dcn::InvalidArgument);
  EXPECT_THROW(cube.RowIndex(Digits{-1, 0, 0}), dcn::InvalidArgument);
  EXPECT_THROW(cube.RowIndex(Digits{0, 0}), dcn::InvalidArgument);
  EXPECT_THROW(cube.RowDigits(24), dcn::InvalidArgument);
}

TEST(GeneralAbcccTest, RowIndexUsesLittleEndianMixedRadixWeights) {
  // Weights 1, 4, 4*3: [1, 2, 1] -> 1 + 2*4 + 1*12 = 21.
  const ImplicitCube cube{GeneralAbcccParams{{4, 3, 2}, 2}};
  EXPECT_EQ(cube.RowIndex(Digits{1, 2, 1}), 21u);
  EXPECT_EQ(cube.RowDigits(21), (Digits{1, 2, 1}));
}

TEST(GeneralAbcccTest, LevelSwitchIsSharedExactlyByItsPlane) {
  // Two rows share their level-l switch iff they differ at most in digit l.
  const ImplicitCube cube{GeneralAbcccParams{{4, 3, 2}, 2}};
  for (std::uint64_t a = 0; a < cube.Params().RowCount(); ++a) {
    for (std::uint64_t b = 0; b < cube.Params().RowCount(); ++b) {
      const Digits da = cube.RowDigits(a);
      const Digits db = cube.RowDigits(b);
      for (int level = 0; level <= 2; ++level) {
        Digits masked = db;
        masked[level] = da[level];
        EXPECT_EQ(cube.LevelSwitchAt(level, da) == cube.LevelSwitchAt(level, db),
                  masked == da);
      }
    }
  }
}

TEST(GeneralAbcccTest, StructureDegreesAndConnectivity) {
  const GeneralAbcccParams p{{4, 3, 2}, 2};
  const Abccc net{p};
  const graph::Graph& g = net.Network();
  EXPECT_TRUE(graph::IsConnected(g));
  // Level-l switch degree = radices[l]; check via a row's switches.
  const Digits zero(3, 0);
  EXPECT_EQ(g.Degree(net.LevelSwitchAt(0, zero)), 4u);
  EXPECT_EQ(g.Degree(net.LevelSwitchAt(1, zero)), 3u);
  EXPECT_EQ(g.Degree(net.LevelSwitchAt(2, zero)), 2u);
  EXPECT_EQ(g.Degree(net.CrossbarAt(0)), 3u);  // m = 3
}

TEST(GeneralAbcccTest, LevelSwitchConnectsItsPlane) {
  const Abccc net{GeneralAbcccParams{{4, 3, 2}, 2}};
  const graph::Graph& g = net.Network();
  Digits digits{1, 2, 0};
  const graph::NodeId sw = net.LevelSwitchAt(1, digits);
  for (int d = 0; d < 3; ++d) {
    digits[1] = d;
    EXPECT_TRUE(g.Adjacent(sw, net.ServerAt(digits, net.Params().AgentRole(1))));
  }
}

TEST(GeneralAbcccTest, AllPairsRoutingIsValid) {
  const Abccc net{GeneralAbcccParams{{3, 2, 2}, 2}};
  for (const graph::NodeId src : net.Servers()) {
    for (const graph::NodeId dst : net.Servers()) {
      const routing::Route route{net.Route(src, dst)};
      ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "")
          << src << "->" << dst;
      ASSERT_EQ(route.Dst(), dst);
      ASSERT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
    }
  }
}

TEST(GeneralAbcccTest, RoutingNotShorterThanBfs) {
  const Abccc net{GeneralAbcccParams{{4, 2, 3}, 3}};
  Rng rng{91};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 40; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const std::vector<int> dist = graph::BfsDistances(net.Network(), src);
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    EXPECT_GE(static_cast<int>(route.LinkCount()), dist[dst]);
  }
}

TEST(GeneralAbcccTest, DescribeAndLabels) {
  const Abccc net{GeneralAbcccParams{{4, 3, 2}, 2}};
  EXPECT_EQ(net.Describe(), "GeneralABCCC(radices=[2,3,4],c=2)");
  EXPECT_EQ(net.Name(), "GeneralABCCC");
  EXPECT_EQ(net.NodeLabel(net.ServerAt(Digits{1, 2, 0}, 1)), "<021;1>");
}

TEST(SliceExpansionTest, PlanIsPureAddition) {
  const GeneralAbcccParams from{{4, 4, 2}, 2};  // top level partially built
  const ExpansionStep step = PlanSliceExpansion(from, 2);
  EXPECT_EQ(step.existing_servers_modified, 0u);
  EXPECT_EQ(step.existing_switches_replaced, 0u);
  EXPECT_EQ(step.existing_links_recabled, 0u);
  EXPECT_EQ(step.DisruptionTotal(), 0u);
  const GeneralAbcccParams to{{4, 4, 3}, 2};
  EXPECT_EQ(step.servers_after, to.ServerTotal());
  // Each existing level-2 switch accepts one new slice cable.
  EXPECT_EQ(step.crossbar_ports_consumed, from.LevelSwitchCount(2));
  EXPECT_THROW(PlanSliceExpansion(from, 5), dcn::InvalidArgument);
}

TEST(SliceExpansionTest, SliceGrowthChainEmbeds) {
  // Grow the top level 2 -> 3 -> 4: every step keeps the old network intact.
  for (int r = 2; r < 4; ++r) {
    const Abccc before{GeneralAbcccParams{{4, 4, r}, 2}};
    const Abccc after{GeneralAbcccParams{{4, 4, r + 1}, 2}};
    EXPECT_TRUE(VerifyAbcccExpansion(before, after)) << "r=" << r;
  }
}

TEST(SliceExpansionTest, LowerLevelGrowthAlsoEmbeds) {
  const Abccc before{GeneralAbcccParams{{3, 4, 2}, 3}};
  const Abccc after{GeneralAbcccParams{{4, 4, 2}, 3}};
  EXPECT_TRUE(VerifyAbcccExpansion(before, after));
}

TEST(SliceExpansionTest, MismatchesRejected) {
  const Abccc a{GeneralAbcccParams{{4, 4}, 2}};
  const Abccc shrunk{GeneralAbcccParams{{4, 3}, 2}};
  EXPECT_FALSE(VerifyAbcccExpansion(a, shrunk));
  const Abccc other_c{GeneralAbcccParams{{4, 4}, 3}};
  EXPECT_FALSE(VerifyAbcccExpansion(a, other_c));
  const Abccc two_levels_deeper{GeneralAbcccParams{{4, 4, 2, 2}, 2}};
  EXPECT_FALSE(VerifyAbcccExpansion(a, two_levels_deeper));
}

TEST(SliceExpansionTest, NewPartialTopLevelEmbeds) {
  // An order step that opens the new level with a partial slice: the old
  // rows keep their addresses with a_2 = 0 and every link.
  const Abccc before{GeneralAbcccParams{{4, 4}, 2}};
  const Abccc after{GeneralAbcccParams{{4, 4, 2}, 2}};
  EXPECT_TRUE(VerifyAbcccExpansion(before, after));
}

TEST(SliceExpansionTest, IdenticalNetworksEmbedTrivially) {
  const Abccc a{GeneralAbcccParams{{3, 3}, 2}};
  const Abccc b{GeneralAbcccParams{{3, 3}, 2}};
  EXPECT_TRUE(VerifyAbcccExpansion(a, b));
}

TEST(GeneralAbcccTest, PartialDeploymentSizesInterpolate) {
  // The point of slice growth: server counts between the k and k+1 uniform
  // networks become reachable.
  const Abccc small{AbcccParams{4, 1, 2}};   // 32 servers
  const Abccc large{AbcccParams{4, 2, 2}};   // 192 servers
  std::vector<std::uint64_t> sizes;
  for (int r = 2; r <= 4; ++r) {
    const GeneralAbcccParams partial{{4, 4, r}, 2};
    sizes.push_back(partial.ServerTotal());
  }
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{96, 144, 192}));
  EXPECT_GT(sizes.front(), small.ServerCount());
  EXPECT_EQ(sizes.back(), large.ServerCount());
}

TEST(GeneralAbcccRoutingTest, BroadcastCoversPartialDeployment) {
  const Abccc net{GeneralAbcccParams{{4, 4, 3}, 2}};  // partial top
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  EXPECT_EQ(tree.CoveredCount(), net.ServerCount());
  for (const graph::NodeId server : net.Servers()) {
    const routing::Route path = tree.PathTo(server);
    ASSERT_EQ(routing::ValidateRoute(net.Network(), path), "");
  }
}

TEST(GeneralAbcccRoutingTest, MulticastPrunesPartialDeployment) {
  const Abccc net{GeneralAbcccParams{{3, 3, 2}, 2}};
  const std::vector<graph::NodeId> targets{3, 17, 25};
  const routing::SpanningTree tree = routing::AbcccMulticastTree(net, 0, targets);
  for (const graph::NodeId target : targets) {
    EXPECT_TRUE(tree.Contains(target));
  }
  EXPECT_LT(tree.CoveredCount(), net.ServerCount());
}

TEST(GeneralAbcccRoutingTest, ForwardingReachesEveryPair) {
  const Abccc net{GeneralAbcccParams{{3, 2, 2}, 2}};
  for (const graph::NodeId src : net.Servers()) {
    for (const graph::NodeId dst : net.Servers()) {
      const routing::Route route = routing::AbcccForwardRoute(net, src, dst);
      ASSERT_EQ(route.Dst(), dst);
      ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "");
    }
  }
}

TEST(GeneralAbcccRoutingTest, RotatedRoutesAreValidOnMixedRadices) {
  const Abccc net{GeneralAbcccParams{{4, 3, 2}, 2}};
  Rng rng{93};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 25; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    for (const routing::Route& route :
         routing::RotatedLevelOrderRoutes(net, src, dst)) {
      EXPECT_EQ(routing::ValidateRoute(net.Network(), route), "");
      EXPECT_EQ(route.Src(), src);
      EXPECT_EQ(route.Dst(), dst);
    }
  }
}

}  // namespace
}  // namespace dcn::topo
