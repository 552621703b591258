#include <gtest/gtest.h>

#include "common/error.h"

#include <sstream>

#include "common/rng.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/report.h"
#include "reference.h"
#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/bcube.h"
#include "topology/fattree.h"

namespace dcn::metrics {
namespace {

using topo::Abccc;
using topo::AbcccParams;
using topo::Bcube;
using topo::BcubeParams;
using topo::FatTree;
using topo::FatTreeParams;

TEST(PathMetricsTest, ExactStatsOnBcubeMatchTheory) {
  const Bcube net{BcubeParams{2, 1}};  // 4 servers, distances 2*hamming
  const ExactPathStats stats = ExactServerPathStats(net);
  EXPECT_TRUE(stats.connected);
  EXPECT_EQ(stats.diameter, 4);
  EXPECT_EQ(stats.pairs, 4u * 3u);
  // Distances: each server sees two at distance 2 and one at distance 4.
  EXPECT_DOUBLE_EQ(stats.average, (2.0 + 2.0 + 4.0) / 3.0);
}

TEST(PathMetricsTest, ExactStatsFlagDisconnection) {
  // A topology is always connected; test the flag through a raw wrapper is
  // not possible here, so assert the connected case explicitly instead.
  const Abccc net{AbcccParams{2, 1, 2}};
  EXPECT_TRUE(ExactServerPathStats(net).connected);
}

TEST(PathMetricsTest, SampledDiameterBoundedByExact) {
  const Abccc net{AbcccParams{3, 2, 2}};
  const ExactPathStats exact = ExactServerPathStats(net);
  dcn::Rng rng{51};
  const SampledPathStats sampled = SamplePathStats(net, 8, 20, rng);
  EXPECT_LE(sampled.diameter_lower_bound, exact.diameter);
  // Sampled shortest lengths must lie within the exact envelope.
  EXPECT_GE(sampled.shortest.Min(), 1);
  EXPECT_LE(sampled.shortest.Max(), exact.diameter);
  // Native routing is never shorter than shortest paths.
  EXPECT_GE(sampled.mean_stretch, 1.0);
  EXPECT_GE(sampled.routed.Mean(), sampled.shortest.Mean());
}

TEST(PathMetricsTest, BcubeRoutingHasUnitStretch) {
  const Bcube net{BcubeParams{4, 1}};
  dcn::Rng rng{52};
  const SampledPathStats sampled = SamplePathStats(net, 6, 30, rng);
  EXPECT_DOUBLE_EQ(sampled.mean_stretch, 1.0);
}

TEST(PathMetricsTest, SampleCountsRespected) {
  const Abccc net{AbcccParams{2, 1, 2}};
  dcn::Rng rng{53};
  const SampledPathStats sampled = SamplePathStats(net, 3, 7, rng);
  EXPECT_EQ(sampled.shortest.Count(), 21);
  EXPECT_EQ(sampled.routed.Count(), 21);
  EXPECT_THROW(SamplePathStats(net, 0, 7, rng), dcn::InvalidArgument);
}

TEST(BisectionTest, EvenRadixCubesMatchTheory) {
  for (int n : {2, 4}) {
    const Bcube bcube{BcubeParams{n, 1}};
    EXPECT_EQ(MeasureBisection(bcube),
              static_cast<std::int64_t>(bcube.TheoreticalBisection()))
        << "BCube n=" << n;
    const Abccc abccc{AbcccParams{n, 1, 2}};
    EXPECT_EQ(MeasureBisection(abccc),
              static_cast<std::int64_t>(abccc.TheoreticalBisection()))
        << "ABCCC n=" << n;
  }
}

TEST(BisectionTest, FatTreeIsFullBisection) {
  const FatTree net{FatTreeParams{4}};
  EXPECT_EQ(MeasureBisection(net), 8);
}

TEST(BisectionTest, FailuresOnlyReduceTheCut) {
  const Abccc net{AbcccParams{4, 1, 2}};
  const std::int64_t healthy = MeasureBisection(net);
  graph::FailureSet failures{net.Network()};
  // Kill one level-1 switch (the bisection plane).
  failures.KillNode(
      net.LevelSwitchAt(1, topo::Digits{0, 0}));
  const std::int64_t degraded = MeasureBisection(net, &failures);
  EXPECT_LT(degraded, healthy);
  EXPECT_GT(degraded, 0);
}

TEST(BisectionTest, OddRadixStillHasPositiveCut) {
  const Abccc net{AbcccParams{3, 1, 2}};
  EXPECT_GT(MeasureBisection(net), 0);
}

TEST(ReportTest, SummarizeAgreesWithDirectMeasurements) {
  const Abccc net{AbcccParams{4, 1, 2}};
  dcn::Rng rng{55};
  const TopologyReport report = Summarize(net, rng);
  EXPECT_EQ(report.description, net.Describe());
  EXPECT_EQ(report.servers, net.ServerCount());
  EXPECT_EQ(report.switches, net.SwitchCount());
  EXPECT_EQ(report.links, net.LinkCount());
  EXPECT_EQ(report.server_ports, 2);
  EXPECT_TRUE(report.connected);
  EXPECT_EQ(report.bisection, MeasureBisection(net));
  EXPECT_DOUBLE_EQ(report.bisection_theory, net.TheoreticalBisection());
  EXPECT_GE(report.routing_stretch, 1.0);
  EXPECT_GT(report.aspl, 0.0);
  // Every sampled source's eccentricity is the diameter.
  EXPECT_EQ(report.diameter, CubeDiameter(1, 2));
  EXPECT_GT(report.capex.total_usd, 0.0);
}

TEST(ReportTest, DeterministicGivenSeed) {
  const Abccc net{AbcccParams{4, 1, 2}};
  dcn::Rng a{7}, b{7};
  const TopologyReport ra = Summarize(net, a);
  const TopologyReport rb = Summarize(net, b);
  EXPECT_DOUBLE_EQ(ra.aspl, rb.aspl);
  EXPECT_DOUBLE_EQ(ra.routing_stretch, rb.routing_stretch);
  EXPECT_EQ(ra.diameter, rb.diameter);
}

TEST(ReportTest, PrintMentionsTheKeyNumbers) {
  const Abccc net{AbcccParams{4, 1, 2}};
  dcn::Rng rng{9};
  const TopologyReport report = Summarize(net, rng);
  std::ostringstream out;
  PrintReport(out, report);
  const std::string text = out.str();
  EXPECT_NE(text.find("ABCCC(n=4,k=1,c=2)"), std::string::npos);
  EXPECT_NE(text.find("servers:      32"), std::string::npos);
  EXPECT_NE(text.find("bisection:    8 (theory 8)"), std::string::npos);
}

}  // namespace
}  // namespace dcn::metrics
