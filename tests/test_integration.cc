// Cross-module integration tests: build real networks, route real traffic,
// and check the qualitative claims the paper's evaluation rests on.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "graph/bfs.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "routing/abccc_routing.h"
#include "routing/fault_routing.h"
#include "routing/route.h"
#include "sim/failures.h"
#include "sim/flowsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/bcube.h"
#include "topology/cost_model.h"
#include "topology/dcell.h"
#include "topology/fattree.h"
#include "topology/ficonn.h"

namespace dcn {
namespace {

using topo::Abccc;
using topo::AbcccParams;

std::vector<std::unique_ptr<topo::Topology>> AllTopologies() {
  std::vector<std::unique_ptr<topo::Topology>> nets;
  nets.push_back(std::make_unique<Abccc>(AbcccParams{4, 2, 3}));
  nets.push_back(std::make_unique<topo::Bccc>(4, 2));
  nets.push_back(
      std::make_unique<Abccc>(topo::GeneralAbcccParams{{4, 4, 3}, 2}));
  nets.push_back(std::make_unique<topo::Bcube>(4, 2));
  nets.push_back(std::make_unique<topo::Dcell>(4, 1));
  nets.push_back(std::make_unique<topo::FiConn>(4, 2));
  nets.push_back(std::make_unique<topo::FatTree>(4));
  return nets;
}

TEST(IntegrationTest, NativeRoutingIsValidOnEveryTopology) {
  Rng rng{61};
  for (const auto& net : AllTopologies()) {
    const auto servers = net->Servers();
    for (int trial = 0; trial < 30; ++trial) {
      const graph::NodeId src = servers[rng.NextUint64(servers.size())];
      const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
      const routing::Route route{net->Route(src, dst)};
      EXPECT_EQ(routing::ValidateRoute(net->Network(), route), "")
          << net->Describe();
      EXPECT_LE(static_cast<int>(route.LinkCount()), net->RouteLengthBound())
          << net->Describe();
    }
  }
}

TEST(IntegrationTest, ShortestPathAgreesWithTopologyOnReachability) {
  Rng rng{62};
  for (const auto& net : AllTopologies()) {
    const auto servers = net->Servers();
    const graph::NodeId src = servers[0];
    const graph::NodeId dst = servers[servers.size() - 1];
    const routing::Route bfs{graph::ShortestPath(net->Network(), src, dst)};
    ASSERT_FALSE(bfs.Empty()) << net->Describe();
    EXPECT_LE(bfs.LinkCount(), routing::Route{net->Route(src, dst)}.LinkCount());
  }
}

TEST(IntegrationTest, PermutationThroughputIsPositiveEverywhere) {
  Rng rng{63};
  for (const auto& net : AllTopologies()) {
    Rng traffic_rng = rng.Fork();
    const std::vector<sim::Flow> flows = sim::PermutationTraffic(*net, traffic_rng);
    std::vector<routing::Route> routes;
    routes.reserve(flows.size());
    for (const sim::Flow& flow : flows) {
      routes.push_back(routing::Route{net->Route(flow.src, flow.dst)});
    }
    const sim::FlowSimResult result = sim::MaxMinFairRates(net->Network(), routes);
    EXPECT_GT(result.min_rate, 0.0) << net->Describe();
    EXPECT_GT(result.aggregate, 0.0) << net->Describe();
    EXPECT_LE(result.max_rate, 1.0 + 1e-9) << net->Describe();
  }
}

// The paper's headline trade-off: raising c shortens rows, which shortens
// the diameter, at the price of more NIC ports per server.
TEST(IntegrationTest, PortCountTradesDiameterForCost) {
  const int n = 4, k = 2;
  int previous_diameter = 1 << 30;
  double previous_ports = 0;
  for (int c : {2, 3, 4}) {
    const Abccc net{AbcccParams{n, k, c}};
    const metrics::ExactPathStats stats = metrics::ExactServerPathStats(net);
    EXPECT_LE(stats.diameter, previous_diameter)
        << "diameter should not grow with c";
    previous_diameter = stats.diameter;
    const topo::CapexReport cost = topo::EvaluateCost(net);
    const double ports =
        static_cast<double>(cost.nic_ports) / static_cast<double>(cost.servers);
    EXPECT_GE(ports, previous_ports) << "NIC ports per server grow with c";
    previous_ports = ports;
  }
}

// BCCC's short-diameter claim relative to its cost class: ABCCC(4,2,2) has
// dual-port servers like DCell(4,1) but scales to far more servers.
TEST(IntegrationTest, AbcccScalesFurtherThanDcellAtSamePortCount) {
  const Abccc abccc{AbcccParams{4, 2, 2}};
  const topo::Dcell dcell{4, 1};
  EXPECT_EQ(abccc.ServerPorts(), 2);
  EXPECT_EQ(dcell.ServerPorts(), 2);
  EXPECT_GT(abccc.ServerCount(), dcell.ServerCount());
}

TEST(IntegrationTest, FaultToleranceDegradesGracefully) {
  const Abccc net{AbcccParams{4, 2, 2}};
  Rng rng{64};
  double previous_success = 1.1;
  for (double rate : {0.0, 0.05, 0.15}) {
    Rng fail_rng{1234};
    const graph::FailureSet failures =
        sim::RandomFailures(net, rate, rate, 0.0, fail_rng);
    const auto servers = net.Servers();
    int success = 0;
    const int trials = 80;
    for (int t = 0; t < trials; ++t) {
      const graph::NodeId src = servers[rng.NextUint64(servers.size())];
      const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
      if (src == dst) {
        ++success;
        continue;
      }
      const routing::Route route =
          routing::AbcccFaultTolerantRoute(net, src, dst, failures, rng);
      if (!route.Empty()) ++success;
    }
    const double ratio = static_cast<double>(success) / trials;
    EXPECT_LE(ratio, previous_success + 0.05);
    previous_success = ratio;
    if (rate == 0.0) {
      EXPECT_DOUBLE_EQ(ratio, 1.0);
    }
  }
}

TEST(IntegrationTest, MeasuredBisectionNeverExceedsLinkCut) {
  // Sanity across the family: measured bisection is positive and at most
  // the total links touching one half.
  for (const auto& net : AllTopologies()) {
    const std::int64_t cut = metrics::MeasureBisection(*net);
    EXPECT_GT(cut, 0) << net->Describe();
    EXPECT_LT(cut, static_cast<std::int64_t>(net->LinkCount()))
        << net->Describe();
  }
}

TEST(IntegrationTest, ServerCentricDesignsBeatFatTreeOnSwitchCount) {
  // Per server, server-centric designs need fewer switch ports.
  const topo::FatTree fattree{4};
  const Abccc abccc{AbcccParams{4, 2, 2}};
  const topo::CapexReport ft = topo::EvaluateCost(fattree);
  const topo::CapexReport ab = topo::EvaluateCost(abccc);
  const double ft_switch_ports_per_server =
      static_cast<double>(ft.switch_ports) / static_cast<double>(ft.servers);
  const double ab_switch_ports_per_server =
      static_cast<double>(ab.switch_ports) / static_cast<double>(ab.servers);
  EXPECT_LT(ab_switch_ports_per_server, ft_switch_ports_per_server);
}

}  // namespace
}  // namespace dcn
