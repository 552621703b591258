// Randomized invariant battery: many random configurations × seeds, one set
// of invariants. Catches interactions that the targeted tests' hand-picked
// parameters miss; failures print the exact configuration to reproduce.
#include <gtest/gtest.h>

#include <memory>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "routing/broadcast.h"
#include "routing/fault_routing.h"
#include "routing/route.h"
#include "sim/failures.h"
#include "sim/flowsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"
#include "topology/custom.h"
#include "topology/expansion.h"

namespace dcn {
namespace {

topo::AbcccParams RandomParams(Rng& rng) {
  topo::AbcccParams params;
  params.n = static_cast<int>(rng.NextInt(2, 5));
  params.k = static_cast<int>(rng.NextInt(0, 3));
  params.c = static_cast<int>(rng.NextInt(2, params.k + 3));
  return params;
}

class RandomInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomInvariants, FullBattery) {
  Rng rng{GetParam()};
  const topo::AbcccParams params = RandomParams(rng);
  SCOPED_TRACE("ABCCC(n=" + std::to_string(params.n) +
               ",k=" + std::to_string(params.k) +
               ",c=" + std::to_string(params.c) + ") seed " +
               std::to_string(GetParam()));
  const topo::Abccc net{params};

  // 1. Structure: counts already DCN_ASSERTed at build; connectivity here.
  ASSERT_TRUE(graph::IsConnected(net.Network()));

  // 2. Source routing on random pairs.
  const auto servers = net.Servers();
  for (int trial = 0; trial < 10; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route sourced{net.Route(src, dst)};
    ASSERT_EQ(routing::ValidateRoute(net.Network(), sourced), "");
  }

  // 3. Broadcast covers everything with consistent depths.
  const graph::NodeId root = servers[rng.NextUint64(servers.size())];
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, root);
  ASSERT_EQ(tree.CoveredCount(), net.ServerCount());

  // 4. Expansion embedding (guard size: skip when the expansion is huge).
  if (params.ServerTotal() < 2000) {
    topo::AbcccParams bigger = params;
    bigger.k = params.k + 1;
    const topo::Abccc expanded{bigger};
    ASSERT_TRUE(topo::VerifyAbcccExpansion(net, expanded));
  }

  // 5. Bisection: measured cut within [1, theory] (theory is the digit cut;
  //    odd radices can measure above floor-based theory, so only the lower
  //    side is tightened).
  const std::int64_t cut = metrics::MeasureBisection(net);
  ASSERT_GE(cut, 1);
  if (params.n % 2 == 0 && net.ServerCount() >= 4) {
    ASSERT_EQ(cut, static_cast<std::int64_t>(net.TheoreticalBisection()));
  }

  // 6. Fault routing success iff reachable, on a random failure pattern.
  const graph::FailureSet failures = sim::RandomFailures(net, 0.08, 0.08, 0.04, rng);
  for (int trial = 0; trial < 8; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    if (src == dst) continue;
    const routing::Route route =
        routing::AbcccFaultTolerantRoute(net, src, dst, failures, rng);
    const bool reachable =
        !graph::ShortestPath(net.Network(), src, dst, &failures).empty();
    ASSERT_EQ(!route.Empty(), reachable);
    if (!route.Empty()) {
      ASSERT_EQ(routing::ValidateRoute(net.Network(), route, &failures), "");
    }
  }

  // 7. Flow conservation: permutation rates positive and within capacity.
  Rng traffic_rng = rng.Fork();
  const std::vector<sim::Flow> flows = sim::PermutationTraffic(net, traffic_rng);
  std::vector<routing::Route> routes;
  for (const sim::Flow& flow : flows) {
    routes.push_back(routing::Route{net.Route(flow.src, flow.dst)});
  }
  const sim::FlowSimResult result = sim::MaxMinFairRates(net.Network(), routes);
  ASSERT_GT(result.min_rate, 0.0);
  ASSERT_LE(result.max_rate, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInvariants,
                         ::testing::Range<std::uint64_t>(1, 25));

// Mixed-radix battery: random radices per level, same invariants.
class RandomGeneralInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGeneralInvariants, StructureRoutingBroadcast) {
  Rng rng{GetParam() * 977 + 3};
  topo::GeneralAbcccParams params;
  const int levels = static_cast<int>(rng.NextInt(1, 3));
  for (int level = 0; level < levels; ++level) {
    params.radices.push_back(static_cast<int>(rng.NextInt(2, 5)));
  }
  params.c = static_cast<int>(rng.NextInt(2, levels + 2));
  std::string desc = "radices:";
  for (int radix : params.radices) desc += " " + std::to_string(radix);
  SCOPED_TRACE(desc + " c=" + std::to_string(params.c) + " seed " +
               std::to_string(GetParam()));

  const topo::Abccc net{params};
  ASSERT_TRUE(graph::IsConnected(net.Network()));

  const auto servers = net.Servers();
  for (int trial = 0; trial < 10; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "");
  }

  const routing::SpanningTree tree = routing::AbcccBroadcastTree(
      net, servers[rng.NextUint64(servers.size())]);
  ASSERT_EQ(tree.CoveredCount(), net.ServerCount());

  // Slice expansion of a random level embeds.
  const int level = static_cast<int>(rng.NextUint64(params.radices.size()));
  if (params.ServerTotal() < 1500) {
    topo::GeneralAbcccParams bigger = params;
    ++bigger.radices[level];
    const topo::Abccc expanded{bigger};
    ASSERT_TRUE(topo::VerifyAbcccExpansion(net, expanded));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGeneralInvariants,
                         ::testing::Range<std::uint64_t>(1, 17));

// Parallel-vs-serial battery: random `custom` topologies (no algebraic
// structure to lean on), every parallelized metric cross-checked bit-exact
// against the DCN_THREADS=1 path at an awkward thread count.
class RandomParallelInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override { SetThreadCount(0); }
};

// A random connected server/switch plant in the custom edge-list format:
// a random spanning tree plus extra chords.
std::string RandomPlant(Rng& rng) {
  const std::size_t nodes = static_cast<std::size_t>(rng.NextInt(12, 40));
  std::string text;
  for (std::size_t i = 0; i < nodes; ++i) {
    // Nodes 0 and 1 are forced servers so sampled metrics always have pairs.
    const bool server = i < 2 || rng.NextBernoulli(0.6);
    text += "node " + std::to_string(i) + (server ? " server\n" : " switch\n");
  }
  for (std::size_t i = 1; i < nodes; ++i) {
    text += "link " + std::to_string(i) + " " +
            std::to_string(rng.NextUint64(i)) + "\n";
  }
  const std::size_t chords = static_cast<std::size_t>(rng.NextInt(0, 12));
  for (std::size_t e = 0; e < chords; ++e) {
    const std::size_t u = rng.NextUint64(nodes);
    const std::size_t v = rng.NextUint64(nodes);
    if (u == v) continue;
    text += "link " + std::to_string(u) + " " + std::to_string(v) + "\n";
  }
  return text;
}

TEST_P(RandomParallelInvariants, ParallelMetricsMatchSerialBitForBit) {
  Rng rng{GetParam() * 7919 + 31};
  const std::string plant = RandomPlant(rng);
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + " plant:\n" + plant);
  const topo::CustomTopology net = topo::CustomTopology::FromString(plant);
  const std::uint64_t metric_seed = rng();

  struct Results {
    metrics::ExactPathStats exact;
    metrics::SampledPathStats sampled;
    metrics::PairCutStats cuts;
    double disconnection = 0.0;
    double worst_switch = 0.0;
  };
  const auto measure = [&] {
    Results r;
    r.exact = metrics::ExactServerPathStats(net);
    Rng metric_rng{metric_seed};
    r.sampled = metrics::SamplePathStats(net, 4, 6, metric_rng);
    r.cuts = metrics::SampledPairCuts(net, 8, metric_rng);
    graph::FailureSet failures{net.Network()};
    failures.KillNode(net.Servers()[0]);
    r.disconnection =
        metrics::PairDisconnectionFraction(net, failures, 48, metric_rng);
    if (net.SwitchCount() > 0) {
      r.worst_switch =
          metrics::WorstSingleSwitchDisconnection(net, 24, 4, metric_rng);
    }
    return r;
  };

  SetThreadCount(1);
  const Results serial = measure();
  SetThreadCount(3);  // odd count, does not divide most chunk counts
  const Results parallel = measure();

  ASSERT_EQ(serial.exact.diameter, parallel.exact.diameter);
  ASSERT_EQ(serial.exact.average, parallel.exact.average);
  ASSERT_EQ(serial.exact.pairs, parallel.exact.pairs);
  ASSERT_EQ(serial.exact.connected, parallel.exact.connected);
  ASSERT_EQ(serial.sampled.shortest.Buckets(), parallel.sampled.shortest.Buckets());
  ASSERT_EQ(serial.sampled.routed.Buckets(), parallel.sampled.routed.Buckets());
  ASSERT_EQ(serial.sampled.mean_stretch, parallel.sampled.mean_stretch);
  ASSERT_EQ(serial.cuts.cuts.Buckets(), parallel.cuts.cuts.Buckets());
  ASSERT_EQ(serial.cuts.min_cut, parallel.cuts.min_cut);
  ASSERT_EQ(serial.cuts.mean_cut, parallel.cuts.mean_cut);
  ASSERT_EQ(serial.disconnection, parallel.disconnection);
  ASSERT_EQ(serial.worst_switch, parallel.worst_switch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParallelInvariants,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace dcn
