#include "metrics/link_usage.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "routing/abccc_routing.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace dcn::metrics {
namespace {

using topo::Abccc;
using topo::AbcccParams;
using topo::Digits;

TEST(LinkUsageTest, ClassesPartitionTheLinks) {
  const AbcccParams p{4, 2, 2};
  const Abccc net{p};
  const std::vector<LinkClassUsage> usage = ClassifyLinkUsage(net, {});
  ASSERT_EQ(usage.size(), 4u);  // crossbar + 3 levels
  EXPECT_EQ(usage[0].name, "crossbar");
  EXPECT_EQ(usage[0].links, net.ServerCount());
  std::size_t total = 0;
  for (const LinkClassUsage& cls : usage) total += cls.links;
  EXPECT_EQ(total, net.LinkCount());
  for (int level = 0; level <= p.k; ++level) {
    EXPECT_EQ(usage[1 + level].name, "level-" + std::to_string(level));
    EXPECT_EQ(usage[1 + level].links, p.RowCount());  // n per switch * n^k
  }
}

TEST(LinkUsageTest, SingleRouteCountsItsTraversals) {
  const AbcccParams p{4, 2, 2};
  const Abccc net{p};
  // Route from role 0 fixing level 1 only: crossbar hop + level-1 hop.
  const graph::NodeId src = net.ServerAt(Digits{0, 0, 0}, 0);
  const graph::NodeId dst = net.ServerAt(Digits{0, 3, 0}, 1);
  const routing::Route route = routing::AbcccRoute(net, src, dst);
  const std::vector<LinkClassUsage> usage = ClassifyLinkUsage(net, {route});
  EXPECT_EQ(usage[0].traversals, 2u);  // crossbar in, crossbar out...
  EXPECT_EQ(usage[2].traversals, 2u);  // level-1 switch in+out
  EXPECT_EQ(usage[1].traversals, 0u);
  EXPECT_EQ(usage[3].traversals, 0u);
}

TEST(LinkUsageTest, PermutationLoadsEveryClass) {
  const Abccc net{AbcccParams{4, 2, 2}};
  dcn::Rng rng{5};
  std::vector<routing::Route> routes;
  for (const sim::Flow& flow : sim::PermutationTraffic(net, rng)) {
    routes.push_back(routing::AbcccRoute(net, flow.src, flow.dst));
  }
  const std::vector<LinkClassUsage> usage = ClassifyLinkUsage(net, routes);
  for (const LinkClassUsage& cls : usage) {
    EXPECT_GT(cls.traversals, 0u) << cls.name;
    EXPECT_GE(cls.max_load, cls.mean_load) << cls.name;
  }
}

TEST(LinkUsageTest, WorksOnMixedRadices) {
  const Abccc net{topo::GeneralAbcccParams{{4, 3, 2}, 2}};
  dcn::Rng rng{6};
  std::vector<routing::Route> routes;
  for (const sim::Flow& flow : sim::PermutationTraffic(net, rng)) {
    routes.push_back(routing::Route{net.Route(flow.src, flow.dst)});
  }
  const std::vector<LinkClassUsage> usage = ClassifyLinkUsage(net, routes);
  ASSERT_EQ(usage.size(), 4u);
  std::size_t total = 0;
  for (const LinkClassUsage& cls : usage) total += cls.links;
  EXPECT_EQ(total, net.LinkCount());
}

TEST(LinkUsageTest, SwitchClassAccessors) {
  const Abccc net{AbcccParams{4, 1, 2}};
  EXPECT_TRUE(net.IsCrossbar(net.CrossbarAt(0)));
  const graph::NodeId sw = net.LevelSwitchAt(1, Digits{2, 3});
  EXPECT_FALSE(net.IsCrossbar(sw));
  EXPECT_EQ(net.LevelOfSwitch(sw), 1);
  EXPECT_THROW(net.LevelOfSwitch(net.CrossbarAt(0)), dcn::InvalidArgument);
  EXPECT_FALSE(net.IsCrossbar(0));  // a server
}

}  // namespace
}  // namespace dcn::metrics
