#include "topology/cost_model.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "metrics/capex.h"
#include "topology/abccc.h"
#include "topology/bcube.h"
#include "topology/fattree.h"

namespace dcn::topo {
namespace {

TEST(CostModelTest, PortAccountingIsConsistent) {
  for (int c : {2, 3}) {
    const Abccc net{AbcccParams{4, 2, c}};
    const CapexReport report = EvaluateCost(net);
    EXPECT_EQ(report.nic_ports + report.switch_ports, 2 * report.links);
    EXPECT_EQ(report.servers, net.ServerCount());
    EXPECT_EQ(report.switches, net.SwitchCount());
    EXPECT_EQ(report.links, net.LinkCount());
  }
}

TEST(CostModelTest, HandComputedTinyNetwork) {
  // ABCCC(2,0,2): m=1, 2 servers, 1 level switch, 2 links, no crossbars.
  const Abccc net{AbcccParams{2, 0, 2}};
  CostModel model;
  model.server_usd = 100;
  model.nic_port_usd = 10;
  model.switch_base_usd = 50;
  model.switch_port_usd = 5;
  model.cable_usd = 1;
  const CapexReport report = EvaluateCost(net, model);
  EXPECT_EQ(report.servers, 2u);
  EXPECT_EQ(report.switches, 1u);
  EXPECT_EQ(report.links, 2u);
  EXPECT_EQ(report.nic_ports, 2u);
  EXPECT_EQ(report.switch_ports, 2u);
  EXPECT_DOUBLE_EQ(report.servers_usd, 200.0);
  EXPECT_DOUBLE_EQ(report.nics_usd, 20.0);
  EXPECT_DOUBLE_EQ(report.switches_usd, 60.0);
  EXPECT_DOUBLE_EQ(report.cables_usd, 2.0);
  EXPECT_DOUBLE_EQ(report.total_usd, 282.0);
  EXPECT_DOUBLE_EQ(report.network_usd, 82.0);
  EXPECT_DOUBLE_EQ(report.per_server_usd, 141.0);
}

TEST(CostModelTest, PowerAccounting) {
  const Abccc net{AbcccParams{2, 0, 2}};
  CostModel model;
  model.server_watts = 100;
  model.nic_port_watts = 2;
  model.switch_base_watts = 10;
  model.switch_port_watts = 1;
  const CapexReport report = EvaluateCost(net, model);
  // 2 NIC ports * 2 W + 1 switch * 10 W + 2 switch ports * 1 W = 16 W.
  EXPECT_DOUBLE_EQ(report.network_watts, 16.0);
  EXPECT_DOUBLE_EQ(report.total_watts, 216.0);
  EXPECT_DOUBLE_EQ(report.watts_per_server, 108.0);
}

TEST(CostModelTest, MoreServerPortsCostMore) {
  // Same server count: BCube(4,1) vs ABCCC-equivalent with cheaper NICs.
  const Bcube bcube{BcubeParams{4, 2}};          // 64 servers, 3 ports each
  const Abccc abccc{AbcccParams{4, 2, 2}};       // uses dual-port servers
  const CapexReport b = EvaluateCost(bcube);
  const CapexReport a = EvaluateCost(abccc);
  const double bcube_nics_per_server =
      static_cast<double>(b.nic_ports) / static_cast<double>(b.servers);
  const double abccc_nics_per_server =
      static_cast<double>(a.nic_ports) / static_cast<double>(a.servers);
  EXPECT_GT(bcube_nics_per_server, abccc_nics_per_server);
}

TEST(GrowthTrajectoryTest, AbcccCumulativeCostIsMonotone) {
  const auto points = metrics::AbcccGrowthTrajectory(4, 2, 1, 3);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].cumulative_disruption, 0u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].servers, points[i - 1].servers);
    EXPECT_GT(points[i].cumulative_usd, points[i - 1].cumulative_usd);
    EXPECT_EQ(points[i].step_disruption, 0u);  // the paper's claim
  }
}

TEST(GrowthTrajectoryTest, BcubeAccumulatesDisruption) {
  const auto points = metrics::BcubeGrowthTrajectory(4, 1, 3);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[1].step_disruption, 0u);
  EXPECT_GT(points[2].cumulative_disruption, points[1].cumulative_disruption);
}

TEST(GrowthTrajectoryTest, FatTreeStepCostExceedsDelta) {
  // Replacement makes a fat-tree step cost more than the plain cost delta.
  const auto points = metrics::FatTreeGrowthTrajectory(4, 6);
  ASSERT_EQ(points.size(), 2u);
  const CapexReport before = EvaluateCost(FatTree{FatTreeParams{4}});
  const CapexReport after = EvaluateCost(FatTree{FatTreeParams{6}});
  EXPECT_GT(points[1].step_usd, after.total_usd - before.total_usd);
  EXPECT_GT(points[1].step_disruption, 0u);
}

TEST(GrowthTrajectoryTest, DcellTrajectoryRuns) {
  const auto points = metrics::DcellGrowthTrajectory(3, 0, 2);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].servers, 3u);
  EXPECT_EQ(points[1].servers, 12u);
  EXPECT_EQ(points[2].servers, 156u);
}

TEST(GrowthTrajectoryTest, BadRangeThrows) {
  EXPECT_THROW(metrics::AbcccGrowthTrajectory(4, 2, 3, 1), dcn::InvalidArgument);
}

}  // namespace
}  // namespace dcn::topo
