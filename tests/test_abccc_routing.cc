#include "routing/abccc_routing.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "routing/route.h"
#include "topology/abccc.h"

namespace dcn::routing {
namespace {

using topo::Abccc;
using topo::AbcccAddress;
using topo::AbcccParams;
using topo::Digits;

// Independent accounting of what a digit-fixing walk must cost: 2 links per
// corrected level plus 2 links per agent-role change along the way.
std::size_t ExpectedWalkLength(const AbcccParams& p, const AbcccAddress& src,
                               const AbcccAddress& dst,
                               const std::vector<int>& order) {
  std::size_t links = 2 * order.size();
  int role = src.role;
  for (int level : order) {
    const int agent = p.AgentRole(level);
    if (agent != role) {
      links += 2;
      role = agent;
    }
  }
  if (role != dst.role) links += 2;
  return links;
}

class RoutingSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  AbcccParams P() const {
    const auto [n, k, c] = GetParam();
    return AbcccParams{n, k, c};
  }
};

TEST_P(RoutingSweep, AllStrategiesProduceValidRoutes) {
  const Abccc net{P()};
  dcn::Rng rng{101};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 50; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    for (PermutationStrategy strategy :
         {PermutationStrategy::kSequential, PermutationStrategy::kGroupedFromSource,
          PermutationStrategy::kRandom, PermutationStrategy::kBalancedHash}) {
      const Route route = AbcccRoute(net, src, dst, strategy, &rng);
      ASSERT_FALSE(route.Empty());
      EXPECT_EQ(route.Src(), src);
      EXPECT_EQ(route.Dst(), dst);
      const std::string problem = ValidateRoute(net.Network(), route);
      EXPECT_EQ(problem, "") << net.Describe() << " " << ToString(strategy);
      EXPECT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
    }
  }
}

TEST_P(RoutingSweep, LengthMatchesWalkAccounting) {
  const Abccc net{P()};
  dcn::Rng rng{202};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 50; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const AbcccAddress from = net.AddressOf(src);
    const AbcccAddress to = net.AddressOf(dst);
    for (PermutationStrategy strategy :
         {PermutationStrategy::kSequential, PermutationStrategy::kGroupedFromSource,
          PermutationStrategy::kRandom}) {
      dcn::Rng order_rng{static_cast<std::uint64_t>(trial) * 7 + 1};
      const std::vector<int> order =
          MakeLevelOrder(net, from, to, strategy, &order_rng);
      const Route route{net.RouteWithLevelOrder(src, dst, order)};
      EXPECT_EQ(route.LinkCount(), ExpectedWalkLength(P(), from, to, order));
    }
  }
}

TEST_P(RoutingSweep, GroupedNeverLongerThanSequential) {
  const Abccc net{P()};
  dcn::Rng rng{303};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 100; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const Route grouped =
        AbcccRoute(net, src, dst, PermutationStrategy::kGroupedFromSource);
    const Route sequential =
        AbcccRoute(net, src, dst, PermutationStrategy::kSequential);
    EXPECT_LE(grouped.LinkCount(), sequential.LinkCount());
  }
}

TEST_P(RoutingSweep, RouteNeverShorterThanBfs) {
  const Abccc net{P()};
  dcn::Rng rng{404};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 20; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const std::vector<int> dist = graph::BfsDistances(net.Network(), src);
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const Route route = AbcccRoute(net, src, dst);
    EXPECT_GE(static_cast<int>(route.LinkCount()), dist[dst]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutingSweep,
    ::testing::Values(std::tuple{2, 1, 2}, std::tuple{2, 3, 2},
                      std::tuple{3, 2, 2}, std::tuple{3, 2, 3},
                      std::tuple{4, 1, 2}, std::tuple{4, 2, 3},
                      std::tuple{4, 2, 4}, std::tuple{4, 3, 2},
                      std::tuple{5, 2, 3}, std::tuple{6, 1, 2}));

TEST(AbcccRoutingTest, RouteToSelfIsTrivial) {
  const Abccc net{AbcccParams{4, 2, 2}};
  const Route route = AbcccRoute(net, 5, 5);
  ASSERT_EQ(route.hops.size(), 1u);
  EXPECT_EQ(route.hops[0], 5);
  EXPECT_EQ(route.LinkCount(), 0u);
}

TEST(AbcccRoutingTest, SameRowUsesOnlyTheCrossbar) {
  const topo::AbcccParams p{4, 2, 2};
  const Abccc net{p};
  const graph::NodeId a = net.ServerAtRow(7, 0);
  const graph::NodeId b = net.ServerAtRow(7, 2);
  const Route route = AbcccRoute(net, a, b);
  ASSERT_EQ(route.hops.size(), 3u);
  EXPECT_EQ(route.hops[1], net.CrossbarAt(7));
}

TEST(AbcccRoutingTest, SingleDigitCorrectionFromAgent) {
  const topo::AbcccParams p{4, 2, 2};
  const Abccc net{p};
  // src is the agent of level 1 (role 1); fix only digit 1: 2 links.
  const graph::NodeId src = net.ServerAt(Digits{0, 0, 0}, 1);
  const graph::NodeId dst = net.ServerAt(Digits{0, 3, 0}, 1);
  const Route route = AbcccRoute(net, src, dst);
  EXPECT_EQ(route.LinkCount(), 2u);
  EXPECT_EQ(route.hops[1], net.LevelSwitchAt(1, Digits{0, 0, 0}));
}

TEST(AbcccRoutingTest, LevelOrderValidationRejectsBadOrders) {
  const Abccc net{AbcccParams{4, 2, 2}};
  const graph::NodeId src = net.ServerAt(Digits{0, 0, 0}, 0);
  const graph::NodeId dst = net.ServerAt(Digits{1, 1, 0}, 0);
  // Missing level 1.
  EXPECT_THROW(net.RouteWithLevelOrder(src, dst, std::vector<int>{0}),
               dcn::InvalidArgument);
  // Non-differing level 2.
  EXPECT_THROW(net.RouteWithLevelOrder(src, dst, std::vector<int>{0, 1, 2}),
               dcn::InvalidArgument);
  // Duplicate.
  EXPECT_THROW(net.RouteWithLevelOrder(src, dst, std::vector<int>{0, 0}),
               dcn::InvalidArgument);
  // Out of range.
  EXPECT_THROW(net.RouteWithLevelOrder(src, dst, std::vector<int>{0, 7}),
               dcn::InvalidArgument);
}

TEST(AbcccRoutingTest, RandomStrategyRequiresRng) {
  const Abccc net{AbcccParams{4, 1, 2}};
  EXPECT_THROW(AbcccRoute(net, 0, 5, PermutationStrategy::kRandom, nullptr),
               dcn::InvalidArgument);
}

TEST(AbcccRoutingTest, DefaultOrderStartsAtSourceAgentGroup) {
  // 6 levels, c=3 => roles 0,1,2 own levels {0,1},{2,3},{4,5}.
  const AbcccParams p{2, 5, 3};
  const Abccc net{p};
  const graph::NodeId src = net.ServerAt(Digits{0, 0, 0, 0, 0, 0}, 1);
  const graph::NodeId dst = net.ServerAt(Digits{1, 1, 1, 1, 1, 1}, 2);
  const std::vector<int> order =
      net.DefaultLevelOrder(net.AddressOf(src), net.AddressOf(dst));
  ASSERT_EQ(order.size(), 6u);
  // First fixes src's own levels (role 1: 2,3), last fixes dst's (role 2: 4,5).
  EXPECT_EQ(p.AgentRole(order.front()), 1);
  EXPECT_EQ(p.AgentRole(order.back()), 2);
}

TEST(AbcccRoutingTest, ToStringCoversStrategies) {
  EXPECT_STREQ(ToString(PermutationStrategy::kSequential), "sequential");
  EXPECT_STREQ(ToString(PermutationStrategy::kGroupedFromSource), "grouped");
  EXPECT_STREQ(ToString(PermutationStrategy::kRandom), "random");
  EXPECT_STREQ(ToString(PermutationStrategy::kBalancedHash), "balanced-hash");
}

TEST(AbcccRoutingTest, BalancedHashIsDeterministicAndNeedsNoRng) {
  const Abccc net{AbcccParams{4, 2, 2}};
  dcn::Rng rng{505};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 40; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const Route a =
        AbcccRoute(net, src, dst, PermutationStrategy::kBalancedHash, nullptr);
    const Route b =
        AbcccRoute(net, src, dst, PermutationStrategy::kBalancedHash, nullptr);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(ValidateRoute(net.Network(), a), "");
  }
}

TEST(AbcccRoutingTest, BalancedHashSpreadsFirstPlanes) {
  // Across many pairs that all differ in every digit, the first corrected
  // level should not always be the same one.
  const AbcccParams p{4, 2, 2};
  const Abccc net{p};
  std::set<int> first_levels;
  for (int a = 0; a < 4; ++a) {
    const topo::AbcccAddress src{topo::Digits{0, 0, 0}, 0};
    const topo::AbcccAddress dst{topo::Digits{(a % 3) + 1, ((a + 1) % 3) + 1,
                                              ((a + 2) % 3) + 1},
                                 0};
    const std::vector<int> order =
        MakeLevelOrder(net, src, dst, PermutationStrategy::kBalancedHash);
    ASSERT_EQ(order.size(), 3u);
    first_levels.insert(order.front());
  }
  EXPECT_GE(first_levels.size(), 2u);
}

}  // namespace
}  // namespace dcn::routing
