#include "topology/ficonn.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "routing/route.h"

namespace dcn::topo {
namespace {

TEST(FiConnParamsTest, RecurrenceAndValidation) {
  // t_0 = 4; g_1 = 4/2+1 = 3; t_1 = 12; g_2 = 12/4+1 = 4; t_2 = 48.
  const FiConnParams p{4, 2};
  EXPECT_NO_THROW(p.Validate());
  EXPECT_EQ(p.ServersAtLevel(0), 4u);
  EXPECT_EQ(p.ServersAtLevel(1), 12u);
  EXPECT_EQ(p.ServersAtLevel(2), 48u);
  EXPECT_EQ(p.CopiesAtLevel(1), 3u);
  EXPECT_EQ(p.CopiesAtLevel(2), 4u);
  EXPECT_EQ(p.IdleAtLevel(0), 4u);
  EXPECT_EQ(p.IdleAtLevel(1), 6u);
  EXPECT_EQ(p.IdleAtLevel(2), 12u);

  EXPECT_THROW((FiConnParams{3, 1}.Validate()), dcn::InvalidArgument);  // odd n
  EXPECT_THROW((FiConnParams{4, -1}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((FiConnParams{4, 5}.Validate()), dcn::InvalidArgument);
  // n = 2, k = 2: t_1 = 2*2=4, divisible by 4 -> fine; k=3: t_2 = 4*2 = 8,
  // divisible by 8 -> fine. n = 6, k = 2: t_1 = 6*4 = 24 divisible by 4 ✓.
  EXPECT_NO_THROW((FiConnParams{6, 2}.Validate()));
}

class FiConnSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  FiConnParams P() const {
    const auto [n, k] = GetParam();
    return FiConnParams{n, k};
  }
};

TEST_P(FiConnSweep, CountsMatchFormulas) {
  const FiConnParams p = P();
  const FiConn net{p};
  EXPECT_EQ(net.ServerCount(), p.ServerTotal());
  EXPECT_EQ(net.SwitchCount(), p.SwitchTotal());
  EXPECT_EQ(net.LinkCount(), p.LinkTotal());
}

TEST_P(FiConnSweep, ServersNeverExceedTwoPorts) {
  const FiConn net{P()};
  std::size_t idle = 0;
  for (const graph::NodeId server : net.Servers()) {
    const std::size_t degree = net.Network().Degree(server);
    ASSERT_GE(degree, 1u);
    ASSERT_LE(degree, 2u);
    if (degree == 1) {
      EXPECT_TRUE(net.HasIdleBackupPort(server));
      ++idle;
    } else {
      EXPECT_FALSE(net.HasIdleBackupPort(server));
    }
  }
  // The defining invariant: t_k / 2^k backup ports remain idle for growth.
  EXPECT_EQ(idle, P().IdleAtLevel(P().k));
}

TEST_P(FiConnSweep, Connected) {
  const FiConn net{P()};
  EXPECT_TRUE(graph::IsConnected(net.Network()));
}

TEST_P(FiConnSweep, RoutesValidAndBounded) {
  const FiConn net{P()};
  dcn::Rng rng{71};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 60; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "")
        << net.Describe() << " " << src << "->" << dst;
    ASSERT_EQ(route.Src(), src);
    ASSERT_EQ(route.Dst(), dst);
    ASSERT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
  }
}

TEST_P(FiConnSweep, RouteNeverShorterThanBfs) {
  const FiConn net{P()};
  dcn::Rng rng{72};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 10; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const std::vector<int> dist = graph::BfsDistances(net.Network(), src);
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    ASSERT_GE(static_cast<int>(route.LinkCount()), dist[dst]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FiConnSweep,
                         ::testing::Values(std::tuple{2, 0}, std::tuple{2, 1},
                                           std::tuple{2, 2}, std::tuple{4, 1},
                                           std::tuple{4, 2}, std::tuple{4, 3},
                                           std::tuple{6, 1}, std::tuple{6, 2},
                                           std::tuple{8, 1}, std::tuple{8, 2}));

TEST(FiConnTest, LevelOneLinkRule) {
  // FiConn(4,1): copies of 4 servers; available #p has local uid 1 + 2p
  // (odd uids). Copies i<j joined at (copy i, local 1+2(j-1)) -- (copy j,
  // local 1+2i).
  const FiConn net{FiConnParams{4, 1}};
  const graph::Graph& g = net.Network();
  // (0,1): copy0 local 1 = server 1 <-> copy1 local 1 = server 5.
  EXPECT_TRUE(g.Adjacent(1, 5));
  // (0,2): copy0 local 3 = server 3 <-> copy2 local 1 = server 9.
  EXPECT_TRUE(g.Adjacent(3, 9));
  // (1,2): copy1 local 3 = server 7 <-> copy2 local 3 = server 11.
  EXPECT_TRUE(g.Adjacent(7, 11));
  // Even-uid servers keep their backup ports idle.
  EXPECT_TRUE(net.HasIdleBackupPort(0));
  EXPECT_TRUE(net.HasIdleBackupPort(6));
  EXPECT_FALSE(net.HasIdleBackupPort(1));
}

TEST(FiConnTest, SameCellRouteUsesTheSwitch) {
  const FiConn net{FiConnParams{4, 1}};
  const routing::Route route{net.Route(0, 2)};
  ASSERT_EQ(route.hops.size(), 3u);
  EXPECT_EQ(route.hops[1], net.SwitchOf(0));
}

TEST(FiConnTest, LabelAndDescribe) {
  const FiConn net{FiConnParams{4, 2}};  // t_1 = 12
  // Server 30: copy 30/12 = 2 at level 2; (30 % 12)/4 = 1 at level 1.
  EXPECT_EQ(net.NodeLabel(30), "[2,1,2]");
  EXPECT_EQ(net.Describe(), "FiConn(n=4,k=2)");
}

TEST(FiConnTest, CheaperThanBcccInLinks) {
  // Same 2-port cost class: FiConn uses strictly fewer links and switches
  // per server than ABCCC(c=2) — its selling point — at similar scale.
  const FiConn ficonn{FiConnParams{8, 2}};  // t = 8*5=40, g2=11 -> 440
  const double links_per_server = static_cast<double>(ficonn.LinkCount()) /
                                  static_cast<double>(ficonn.ServerCount());
  EXPECT_LT(links_per_server, 2.0);  // vs exactly 2.0 for BCCC
}

}  // namespace
}  // namespace dcn::topo
