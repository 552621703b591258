#include "topology/bcube.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "routing/route.h"

namespace dcn::topo {
namespace {

class BcubeSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  BcubeParams P() const {
    const auto [n, k] = GetParam();
    return BcubeParams{n, k};
  }
};

TEST_P(BcubeSweep, CountsMatchFormulas) {
  const BcubeParams p = P();
  const Bcube net{p};
  EXPECT_EQ(net.ServerCount(), p.ServerTotal());
  EXPECT_EQ(net.SwitchCount(), p.SwitchTotal());
  EXPECT_EQ(net.LinkCount(), p.LinkTotal());
}

TEST_P(BcubeSweep, EveryServerHasKPlusOnePorts) {
  const BcubeParams p = P();
  const Bcube net{p};
  for (const graph::NodeId server : net.Servers()) {
    EXPECT_EQ(net.Network().Degree(server), static_cast<std::size_t>(p.k + 1));
  }
  EXPECT_EQ(net.ServerPorts(), p.k + 1);
}

TEST_P(BcubeSweep, AddressRoundTrip) {
  const Bcube net{P()};
  for (const graph::NodeId server : net.Servers()) {
    EXPECT_EQ(net.ServerAt(net.AddressOf(server).digits, 0), server);
  }
}

TEST_P(BcubeSweep, RoutesAreValidWithExactLength) {
  const Bcube net{P()};
  dcn::Rng rng{77};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 50; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    EXPECT_EQ(routing::ValidateRoute(net.Network(), route), "");
    // BCubeRouting is shortest: exactly 2 links per differing digit.
    const int hamming =
        HammingDistance(net.AddressOf(src).digits, net.AddressOf(dst).digits);
    EXPECT_EQ(route.LinkCount(), static_cast<std::size_t>(2 * hamming));
  }
}

TEST_P(BcubeSweep, ConnectedAndDiameterExact) {
  const BcubeParams p = P();
  const Bcube net{p};
  EXPECT_TRUE(graph::IsConnected(net.Network()));
  // Diameter over servers is exactly 2(k+1) (all digits differ).
  const std::vector<int> dist = graph::BfsDistances(net.Network(), 0);
  int ecc = 0;
  for (const graph::NodeId server : net.Servers()) {
    ecc = std::max(ecc, dist[server]);
  }
  EXPECT_EQ(ecc, 2 * (p.k + 1));
  EXPECT_EQ(net.RouteLengthBound(), 2 * (p.k + 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BcubeSweep,
                         ::testing::Values(std::tuple{2, 0}, std::tuple{2, 1},
                                           std::tuple{2, 3}, std::tuple{3, 1},
                                           std::tuple{3, 2}, std::tuple{4, 1},
                                           std::tuple{4, 2}, std::tuple{6, 1},
                                           std::tuple{8, 1}));

TEST(BcubeTest, SwitchConnectsPlane) {
  const Bcube net{BcubeParams{4, 1}};
  const graph::NodeId sw = net.LevelSwitchAt(1, Digits{2, 0});
  // Level-1 switch for a_0 = 2 connects servers <0,2>, <1,2>, <2,2>, <3,2>.
  for (int d = 0; d < 4; ++d) {
    EXPECT_TRUE(net.Network().Adjacent(sw, net.ServerAt(Digits{2, d}, 0)));
  }
  EXPECT_EQ(net.Network().Degree(sw), 4u);
}

TEST(BcubeTest, LabelsAndDescribe) {
  const Bcube net{BcubeParams{4, 1}};
  EXPECT_EQ(net.Describe(), "BCube(n=4,k=1)");
  EXPECT_EQ(net.NodeLabel(net.ServerAt(Digits{2, 1}, 0)), "<12>");
  EXPECT_EQ(net.Name(), "BCube");
}

TEST(BcubeTest, Validation) {
  EXPECT_THROW((Bcube{BcubeParams{1, 1}}), dcn::InvalidArgument);
  EXPECT_THROW((Bcube{BcubeParams{2, -1}}), dcn::InvalidArgument);
  const Bcube net{BcubeParams{2, 1}};
  EXPECT_THROW(net.Route(0, 99), dcn::InvalidArgument);
}

TEST(BcubeTest, TheoreticalBisection) {
  const Bcube net{BcubeParams{4, 1}};  // n^k * n/2 = 4 * 2
  EXPECT_DOUBLE_EQ(net.TheoreticalBisection(), 8.0);
}

}  // namespace
}  // namespace dcn::topo
