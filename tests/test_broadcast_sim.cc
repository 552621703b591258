#include "sim/broadcast_sim.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "routing/broadcast.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

namespace dcn::sim {
namespace {

using topo::Abccc;
using topo::AbcccParams;

TEST(BroadcastSimTest, LowRateCompletesEveryMessageNearTreeDepth) {
  const Abccc net{AbcccParams{4, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  BroadcastSimConfig config;
  config.message_rate = 0.01;
  config.duration = 5000;
  config.warmup = 500;
  const BroadcastSimResult result = RunBroadcastSim(net.Network(), tree, config);
  EXPECT_GT(result.measured, 20u);
  EXPECT_DOUBLE_EQ(result.CompleteFraction(), 1.0);
  EXPECT_EQ(result.copies_dropped, 0u);
  // Completion is bounded below by the tree depth (in links ~ service times)
  // and stays close to it when the fabric is idle.
  EXPECT_GE(result.completion_latency.Min(), tree.MaxDepth());
  EXPECT_LT(result.completion_latency.Mean(), tree.MaxDepth() + 8);
  // Per-receiver latency is at most completion latency.
  EXPECT_LE(result.delivery_latency.Mean(), result.completion_latency.Mean());
}

TEST(BroadcastSimTest, OverloadDropsCopiesAndBreaksCompleteness) {
  const Abccc net{AbcccParams{4, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  BroadcastSimConfig config;
  // The root's first link must carry every message once; rate > 1/fanout
  // saturates the replication stage.
  config.message_rate = 1.5;
  config.duration = 600;
  config.warmup = 100;
  config.queue_capacity = 4;
  const BroadcastSimResult result = RunBroadcastSim(net.Network(), tree, config);
  EXPECT_GT(result.copies_dropped, 0u);
  EXPECT_LT(result.CompleteFraction(), 0.7);
  EXPECT_GE(result.max_link_utilization, 0.9);
}

TEST(BroadcastSimTest, DeterministicGivenSeed) {
  const topo::Bcube net{topo::BcubeParams{3, 1}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 2);
  BroadcastSimConfig config;
  config.message_rate = 0.3;
  config.duration = 400;
  const BroadcastSimResult a = RunBroadcastSim(net.Network(), tree, config);
  const BroadcastSimResult b = RunBroadcastSim(net.Network(), tree, config);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.copies_dropped, b.copies_dropped);
}

TEST(BroadcastSimTest, ThroughputCeilingIsRootFanout) {
  // The root transmits each message once per child segment; its busiest
  // outgoing link caps the sustainable message rate at 1 msg per service
  // time. Just below that, completion still holds; just above, it collapses.
  const topo::Bcube net{topo::BcubeParams{4, 1}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  BroadcastSimConfig below;
  below.message_rate = 0.15;
  below.duration = 1500;
  below.warmup = 300;
  const BroadcastSimResult ok = RunBroadcastSim(net.Network(), tree, below);
  EXPECT_GT(ok.CompleteFraction(), 0.98);
  BroadcastSimConfig above = below;
  above.message_rate = 2.0;
  const BroadcastSimResult bad = RunBroadcastSim(net.Network(), tree, above);
  EXPECT_LT(bad.CompleteFraction(), ok.CompleteFraction());
}

TEST(BroadcastSimTest, ConfigValidation) {
  const Abccc net{AbcccParams{2, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  BroadcastSimConfig config;
  config.message_rate = 0;
  EXPECT_THROW(RunBroadcastSim(net.Network(), tree, config), dcn::InvalidArgument);
  config = BroadcastSimConfig{};
  config.warmup = config.duration;
  EXPECT_THROW(RunBroadcastSim(net.Network(), tree, config), dcn::InvalidArgument);
  EXPECT_THROW(RunBroadcastSim(net.Network(), routing::SpanningTree{}, {}),
               dcn::InvalidArgument);
}

}  // namespace
}  // namespace dcn::sim
