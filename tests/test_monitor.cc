// Lockdown of the online health monitor (obs/monitor.h), the mid-run fault
// schedule (sim/failures.h), and their wiring into the simulators:
//
//  * detector math against hand-computed Q16.16 EWMA/CUSUM references;
//  * hysteresis: flapping signals stay suspect and never alert;
//  * monitor-on, fault-free packet runs are byte-identical to plain runs at
//    every thread count (observation does not perturb);
//  * the acceptance scenario: a faulted ABCCC(4,3,2) run whose alert log is
//    bit-identical at DCN_THREADS 1/2/4/8, with every scheduled fault
//    detected and zero false alarms on the fault-free control;
//  * broadcast and fluid fault semantics, MatchDetections pairing, and the
//    alerts JSON / stats block / Chrome-trace instant-event exports;
//  * one run id: a monitored run's verdicts sit on its flight record (or a
//    verdict-only record when the recorder is off), and its alert instants
//    in its own trace process;
//  * every file sink flag, --alerts-json included, fails loudly.
#include "obs/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "routing/broadcast.h"
#include "routing/route.h"
#include "sim/failures.h"
#include "sim/fluid.h"
#include "sim/broadcast_sim.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace dcn::obs::monitor {
namespace {

using graph::Graph;
using graph::NodeKind;
using routing::Route;

constexpr std::int64_t kOne = std::int64_t{1} << 16;  // 1.0 in Q16.16

class MonitorTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Reset(); }
  void TearDown() override {
    flight::Disable();
    obs::Reset();
    SetThreadCount(0);
    unsetenv("DCN_THREADS");
  }
};

// One (signal, entity) step helper: values[signal][entity].
std::vector<std::vector<std::int64_t>> Row(std::int64_t v) {
  return {{v}};
}

TEST_F(MonitorTest, SpikeDetectorMatchesHandComputedReference) {
  // drift 8 raw/window (no percent term), threshold fixed at the floor 8,
  // CUSUM clamped at 4*8 = 32. Warmup 2 windows on zeros keeps baseline 0,
  // so every Q16 quantity below is exact.
  MonitorConfig config;
  config.enabled = true;
  config.window_width = 10.0;
  config.ewma_shift = 1;
  config.warmup_windows = 2;
  config.drift_percent = 0;
  config.drift_floor = 8;
  config.threshold_percent = 100;
  config.threshold_floor = 8;
  config.alarm_windows = 2;
  config.clear_windows = 2;
  HealthMonitor mon{config};
  const std::uint32_t entity = mon.AddEntity(EntityKind::kLink, 7);
  mon.AddSignal("drops", SignalDirection::kSpike);
  mon.Seal(10);

  // Windows:      0  1    2    3   4  5  6  7  8  9
  // Values:       0  0  100  100   0  0  0  0  0  0
  // CUSUM (raw):  -  -   32   32  24 16  8  0  0  0   (clamped at 32)
  // Breached:     -  -    y    y   y  y  n  n  n  n   (8 > 8 is false)
  // State:        h  h    s  FIRE  a  a  a CLEAR h h
  for (const std::int64_t v : {0, 0, 100, 100, 0, 0, 0, 0, 0, 0}) {
    mon.StepWindow(Row(v));
  }
  const MonitorResult result = mon.TakeResult();
  ASSERT_EQ(result.alerts.size(), 2u);

  const Alert& fire = result.alerts[0];
  EXPECT_EQ(fire.kind, AlertKind::kFire);
  EXPECT_EQ(fire.entity, entity);
  EXPECT_EQ(fire.signal, 0);
  EXPECT_EQ(fire.window, 3);
  EXPECT_EQ(fire.time, 40.0);  // (window + 1) * width
  EXPECT_EQ(fire.value, 100);
  EXPECT_EQ(fire.baseline_q, 0);  // frozen at the pre-outage baseline
  EXPECT_EQ(fire.cusum_q, 32 * kOne);

  const Alert& clear = result.alerts[1];
  EXPECT_EQ(clear.kind, AlertKind::kClear);
  EXPECT_EQ(clear.entity, entity);
  EXPECT_EQ(clear.window, 7);
  EXPECT_EQ(clear.time, 80.0);
  EXPECT_EQ(clear.value, 0);
  EXPECT_EQ(clear.cusum_q, 0);

  // Breached windows 2..5 for the single entity.
  EXPECT_EQ(result.breach_windows, 4u);
  EXPECT_EQ(result.entities[entity].key, 7);
}

TEST_F(MonitorTest, DropDetectorTracksEwmaBaselineExactly) {
  // Default detector on a throughput collapse: steady 40/window, then 0.
  // The un-breached windows keep training the EWMA (gain 1/8), so the
  // baseline decays 40 -> 35 -> 30.625 before the CUSUM crosses; all values
  // below are exact in Q16 (40 * 25 % and the >>3 steps have no remainder
  // the test doesn't reproduce).
  MonitorConfig config;
  config.enabled = true;
  config.window_width = 1.0;
  HealthMonitor mon{config};
  mon.AddEntity(EntityKind::kLink, 0);
  mon.AddSignal("tx", SignalDirection::kDrop);
  mon.Seal(12);
  for (const std::int64_t v : {40, 40, 40, 40, 40, 40, 40, 40, 0, 0, 0, 0}) {
    mon.StepWindow(Row(v));
  }
  const MonitorResult result = mon.TakeResult();
  ASSERT_EQ(result.alerts.size(), 1u);
  const Alert& fire = result.alerts[0];
  EXPECT_EQ(fire.kind, AlertKind::kFire);
  // w8: cusum 29, baseline -> 35; w9: cusum 54.25, baseline -> 30.625;
  // w10: cusum 76.21875 > thr 61.25 (breach 1); w11: breach 2 -> FIRE.
  EXPECT_EQ(fire.window, 11);
  EXPECT_EQ(fire.value, 0);
  EXPECT_EQ(fire.baseline_q, 2007040);  // 30.625 * 2^16
  EXPECT_EQ(fire.cusum_q, 6434816);     // 98.1875 * 2^16
}

TEST_F(MonitorTest, FlappingSignalStaysSuspectAndNeverAlerts) {
  // One bad window, one good window, repeated: the drift term resets the
  // CUSUM every calm window, so the entity oscillates healthy <-> suspect
  // below the alarm_windows bar. Breaches are counted; alerts are not.
  MonitorConfig config;
  config.enabled = true;
  config.warmup_windows = 2;
  config.ewma_shift = 4;
  config.drift_percent = 0;
  config.drift_floor = 50;
  config.threshold_percent = 100;
  config.threshold_floor = 8;
  config.alarm_windows = 2;
  HealthMonitor mon{config};
  mon.AddEntity(EntityKind::kLink, 0);
  mon.AddSignal("drops", SignalDirection::kSpike);
  mon.Seal(12);
  mon.StepWindow(Row(0));
  mon.StepWindow(Row(0));
  for (int i = 0; i < 5; ++i) {
    mon.StepWindow(Row(100));  // clamp(100 - 50) = 32 > 8: breached
    mon.StepWindow(Row(0));    // clamp(32 - 50) = 0: calm again
  }
  const MonitorResult result = mon.TakeResult();
  EXPECT_TRUE(result.alerts.empty());
  EXPECT_EQ(result.breach_windows, 5u);
}

// ---------------------------------------------------------------------------
// Simulator wiring.

void ExpectSameMonitor(const MonitorResult& a, const MonitorResult& b) {
  ASSERT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.breach_windows, b.breach_windows);
  ASSERT_EQ(a.alerts.size(), b.alerts.size());
  for (std::size_t i = 0; i < a.alerts.size(); ++i) {
    const Alert& x = a.alerts[i];
    const Alert& y = b.alerts[i];
    EXPECT_EQ(x.entity, y.entity) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.signal, y.signal) << i;
    EXPECT_EQ(x.window, y.window) << i;
    EXPECT_EQ(x.time, y.time) << i;
    EXPECT_EQ(x.value, y.value) << i;
    EXPECT_EQ(x.baseline_q, y.baseline_q) << i;
    EXPECT_EQ(x.cusum_q, y.cusum_q) << i;
  }
  EXPECT_EQ(a.delivered_per_window, b.delivered_per_window);
  EXPECT_EQ(a.latency_sum_per_window, b.latency_sum_per_window);
  EXPECT_EQ(a.dropped_per_window, b.dropped_per_window);
}

std::vector<Route> PermutationRoutes(const topo::Topology& net,
                                     std::uint64_t seed) {
  Rng rng{seed};
  return sim::NativeRoutes(net, sim::PermutationTraffic(net, rng));
}

TEST_F(MonitorTest, MonitorOnFaultFreeRunDoesNotPerturbThePacketSim) {
  const topo::Abccc net{topo::AbcccParams{4, 2, 2}};
  const std::vector<Route> routes = PermutationRoutes(net, 0x2401);
  sim::PacketSimConfig plain;
  plain.offered_load = 0.6;
  plain.duration = 200;
  plain.warmup = 40;
  sim::PacketSimConfig monitored = plain;
  monitored.monitor.enabled = true;
  monitored.monitor.window_width = 20.0;

  SetThreadCount(1);
  const sim::PacketSimResult dark =
      sim::RunPacketSimSerial(net.Network(), routes, plain);
  const sim::PacketSimResult lit =
      sim::RunPacketSimSerial(net.Network(), routes, monitored);
  EXPECT_EQ(lit.generated, dark.generated);
  EXPECT_EQ(lit.delivered, dark.delivered);
  EXPECT_EQ(lit.dropped, dark.dropped);
  EXPECT_EQ(lit.latency.Mean(), dark.latency.Mean());
  EXPECT_EQ(lit.max_queue_depth, dark.max_queue_depth);
  EXPECT_TRUE(lit.monitor.enabled);
  EXPECT_FALSE(dark.monitor.enabled);
  // The recovery curve covers [0, duration); deliveries from the drain tail
  // past the window grid are counted in `delivered` but not bucketed.
  std::uint64_t delivered_windows = 0;
  for (const std::uint32_t d : lit.monitor.delivered_per_window) {
    delivered_windows += d;
  }
  EXPECT_GT(delivered_windows, 0u);
  EXPECT_LE(delivered_windows, lit.delivered);

  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    SetThreadCount(threads);
    const sim::PacketSimResult sharded =
        sim::RunPacketSim(net.Network(), routes, monitored);
    EXPECT_EQ(sharded.delivered, dark.delivered);
    EXPECT_EQ(sharded.dropped, dark.dropped);
    ExpectSameMonitor(sharded.monitor, lit.monitor);
  }
}

// The acceptance scenario: ABCCC(4, 3, 2) under permutation traffic with a
// degrade, a link kill, and a switch kill mid-run.
struct AcceptanceSetup {
  topo::Abccc net{topo::AbcccParams{4, 3, 2}};
  std::vector<Route> routes;
  sim::FaultSchedule schedule;
  sim::PacketSimConfig config;

  AcceptanceSetup() {
    routes = PermutationRoutes(net, 0x2402);
    const Graph& g = net.Network();
    std::vector<std::uint32_t> link_flows(2 * g.EdgeCount(), 0);
    for (const Route& route : routes) {
      for (const std::uint64_t link : routing::RouteDirectedLinks(g, route)) {
        ++link_flows[link];
      }
    }
    const auto flows_on = [&](graph::EdgeId e) {
      return std::max(link_flows[2 * e], link_flows[2 * e + 1]);
    };
    graph::EdgeId kill_edge = 0;
    const auto edges = static_cast<graph::EdgeId>(g.EdgeCount());
    for (graph::EdgeId e = 1; e < edges; ++e) {
      if (flows_on(e) > flows_on(kill_edge)) kill_edge = e;
    }
    const auto [ku, kv] = g.Endpoints(kill_edge);
    // Busiest transmitting switch away from the killed edge.
    std::vector<std::uint64_t> node_tx(g.NodeCount(), 0);
    for (std::uint64_t link = 0; link < link_flows.size(); ++link) {
      const auto [u, v] = g.Endpoints(static_cast<graph::EdgeId>(link / 2));
      node_tx[link % 2 == 0 ? u : v] += link_flows[link];
    }
    graph::NodeId kill_switch = graph::kInvalidNode;
    for (graph::NodeId n = 0;
         n < static_cast<graph::NodeId>(g.NodeCount()); ++n) {
      if (!g.IsSwitch(n) || n == ku || n == kv) continue;
      if (kill_switch == graph::kInvalidNode ||
          node_tx[n] > node_tx[kill_switch]) {
        kill_switch = n;
      }
    }
    // Busiest edge disjoint from both kill targets takes the degrade: at a
    // stable load only a well-shared link turns a buffer shrink to capacity
    // 1 into a steady burst-drop signal the detector can integrate.
    graph::EdgeId degrade_edge = graph::kInvalidEdge;
    for (graph::EdgeId e = 0; e < edges; ++e) {
      const auto [u, v] = g.Endpoints(e);
      if (e == kill_edge || u == ku || u == kv || v == ku || v == kv ||
          u == kill_switch || v == kill_switch || flows_on(e) == 0) {
        continue;
      }
      if (degrade_edge == graph::kInvalidEdge ||
          flows_on(e) > flows_on(degrade_edge)) {
        degrade_edge = e;
      }
    }
    schedule.DegradeLink(120.0, degrade_edge, 1)
        .KillLink(160.0, kill_edge)
        .KillNode(200.0, kill_switch);
    // A stable operating point: at this load and buffer depth the fault-free
    // network drops nothing, so the control run is a true zero-alarm
    // baseline (saturated networks drop steadily and legitimately alarm).
    config.offered_load = 0.15;
    config.duration = 360;
    config.warmup = 60;
    config.queue_capacity = 64;
    config.monitor.enabled = true;
    config.monitor.window_width = 20.0;
  }
};

TEST_F(MonitorTest, FaultedAbcccAlertLogIsThreadInvariantAndComplete) {
  AcceptanceSetup s;

  // Fault-free control at the same seed and load: zero alarms.
  SetThreadCount(1);
  const sim::PacketSimResult control =
      sim::RunPacketSimSerial(s.net.Network(), s.routes, s.config);
  EXPECT_EQ(control.monitor.FireCount(), 0u);

  sim::PacketSimConfig faulted = s.config;
  faulted.faults = s.schedule;
  const sim::PacketSimResult serial =
      sim::RunPacketSimSerial(s.net.Network(), s.routes, faulted);
  EXPECT_GE(serial.monitor.FireCount(), 3u);
  EXPECT_GT(serial.dropped, control.dropped);

  // Every scheduled fault detected, with a finite positive TTD.
  const std::vector<sim::DetectionOutcome> outcomes =
      sim::MatchDetections(s.net.Network(), s.schedule, serial.monitor);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const sim::DetectionOutcome& o : outcomes) {
    EXPECT_TRUE(o.detected);
    EXPECT_GT(o.ttd, 0.0);
    EXPECT_LE(o.detect_time, faulted.duration);
  }

  // Alert log bit-identical at every thread count.
  for (const int threads : {1, 2, 3, 4, 7, 8}) {
    SCOPED_TRACE(threads);
    SetThreadCount(threads);
    const sim::PacketSimResult sharded =
        sim::RunPacketSim(s.net.Network(), s.routes, faulted);
    EXPECT_EQ(sharded.delivered, serial.delivered);
    EXPECT_EQ(sharded.dropped, serial.dropped);
    ExpectSameMonitor(sharded.monitor, serial.monitor);
  }
}

TEST_F(MonitorTest, EmptyScheduleFaultedConfigIsByteIdenticalToPlain) {
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  const std::vector<Route> routes = PermutationRoutes(net, 0x2403);
  sim::PacketSimConfig config;
  config.offered_load = 0.7;
  config.duration = 150;
  config.warmup = 30;
  SetThreadCount(1);
  const sim::PacketSimResult plain =
      sim::RunPacketSimSerial(net.Network(), routes, config);
  sim::PacketSimConfig with_empty = config;
  with_empty.faults = sim::FaultSchedule{};  // explicit empty schedule
  const sim::PacketSimResult empty_sched =
      sim::RunPacketSimSerial(net.Network(), routes, with_empty);
  EXPECT_EQ(empty_sched.delivered, plain.delivered);
  EXPECT_EQ(empty_sched.dropped, plain.dropped);
  EXPECT_EQ(empty_sched.latency.Mean(), plain.latency.Mean());
}

TEST_F(MonitorTest, BroadcastKillFiresAndMonitorOnDoesNotPerturb) {
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  sim::BroadcastSimConfig plain;
  plain.message_rate = 0.2;  // stable: the fault-free tree drops no copies
  plain.duration = 600;
  plain.warmup = 100;
  const sim::BroadcastSimResult dark =
      sim::RunBroadcastSim(net.Network(), tree, plain);

  sim::BroadcastSimConfig monitored = plain;
  monitored.monitor.enabled = true;
  monitored.monitor.window_width = 20.0;
  const sim::BroadcastSimResult lit =
      sim::RunBroadcastSim(net.Network(), tree, monitored);
  EXPECT_EQ(lit.messages, dark.messages);
  EXPECT_EQ(lit.complete, dark.complete);
  EXPECT_EQ(lit.copies_dropped, dark.copies_dropped);
  EXPECT_EQ(lit.monitor.FireCount(), 0u);

  // Kill the root server's only NIC edge mid-run: the whole tree starves,
  // and the dead link's tx collapse must fire.
  const graph::EdgeId root_edge = net.Network().Neighbors(0)[0].edge;
  sim::BroadcastSimConfig faulted = monitored;
  faulted.faults.KillLink(300.0, root_edge);
  const sim::BroadcastSimResult result =
      sim::RunBroadcastSim(net.Network(), tree, faulted);
  EXPECT_GT(result.monitor.FireCount(), 0u);
  const std::vector<sim::DetectionOutcome> outcomes = sim::MatchDetections(
      net.Network(), faulted.faults, result.monitor);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_GT(outcomes[0].ttd, 0.0);
  EXPECT_LT(result.complete, dark.complete);
}

TEST_F(MonitorTest, FluidKillTerminatesCrossingFlowsOnly) {
  Graph g;
  const graph::NodeId s0 = g.AddNode(NodeKind::kServer);
  const graph::NodeId s1 = g.AddNode(NodeKind::kServer);
  const graph::NodeId sw = g.AddNode(NodeKind::kSwitch);
  const graph::NodeId s2 = g.AddNode(NodeKind::kServer);
  const graph::NodeId s3 = g.AddNode(NodeKind::kServer);
  const graph::EdgeId e0 = g.AddEdge(s0, sw);
  g.AddEdge(sw, s1);
  g.AddEdge(s2, sw);
  g.AddEdge(sw, s3);
  const std::vector<Route> routes = {Route{{s0, sw, s1}}, Route{{s2, sw, s3}}};
  const std::vector<double> bytes = {10.0, 1.0};

  // No faults: overloads agree byte-for-byte.
  const sim::FluidResult plain = sim::FluidCompletionTimes(g, routes, bytes);
  const sim::FluidResult empty_sched =
      sim::FluidCompletionTimes(g, routes, bytes, sim::FaultSchedule{});
  EXPECT_EQ(plain.finish_time, empty_sched.finish_time);
  EXPECT_EQ(plain.killed_flows, 0u);
  EXPECT_EQ(empty_sched.killed_flows, 0u);

  // Kill flow 0's first edge at t=0.5: flow 0 dies, flow 1 unaffected.
  sim::FaultSchedule schedule;
  schedule.KillLink(0.5, e0);
  const sim::FluidResult faulted =
      sim::FluidCompletionTimes(g, routes, bytes, schedule);
  EXPECT_EQ(faulted.killed_flows, 1u);
  EXPECT_FALSE(std::isfinite(faulted.finish_time[0]));
  EXPECT_EQ(faulted.finish_time[1], plain.finish_time[1]);
}

TEST_F(MonitorTest, MatchDetectionsPairsFaultsWithAffectedEntities) {
  Graph g;
  g.AddNode(NodeKind::kSwitch);  // 0
  g.AddNode(NodeKind::kSwitch);  // 1
  const graph::EdgeId e0 = g.AddEdge(0, 1);

  MonitorResult result;
  result.enabled = true;
  result.entities = {EntityInfo{EntityKind::kLink, 0},
                     EntityInfo{EntityKind::kLink, 1},
                     EntityInfo{EntityKind::kNode, 0},
                     EntityInfo{EntityKind::kNode, 1}};
  result.signals = {"tx"};
  // Window order: a node-1 fire BEFORE the fault, then a link-0 fire after,
  // then a link-1 clear after the restore.
  result.alerts = {
      Alert{3, AlertKind::kFire, 0, 4, 100.0, 0, 0, 0},
      Alert{0, AlertKind::kFire, 0, 7, 150.0, 0, 0, 0},
      Alert{1, AlertKind::kClear, 0, 9, 180.0, 0, 0, 0},
  };

  sim::FaultSchedule schedule;
  schedule.KillLink(120.0, e0);     // matches the link-0 fire at 150
  schedule.RestoreLink(160.0, e0);  // restores match clears: 180
  schedule.KillLink(155.0, e0);     // only the pre-existing alerts: none >= 155
  const std::vector<sim::DetectionOutcome> outcomes =
      sim::MatchDetections(g, schedule, result);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_EQ(outcomes[0].detect_time, 150.0);
  EXPECT_EQ(outcomes[0].ttd, 30.0);
  EXPECT_TRUE(outcomes[1].detected);
  EXPECT_EQ(outcomes[1].detect_time, 180.0);
  EXPECT_FALSE(outcomes[2].detected);
}

// ABCCC(4,1,2) under a permutation with its busiest link killed mid-run, so
// the monitored run fires at least one alert.
struct FaultedFabric {
  topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  std::vector<Route> routes = PermutationRoutes(net, 0x2404);
  sim::PacketSimConfig config;

  FaultedFabric() {
    const Graph& g = net.Network();
    std::vector<std::uint32_t> link_flows(2 * g.EdgeCount(), 0);
    for (const Route& route : routes) {
      for (const std::uint64_t link : routing::RouteDirectedLinks(g, route)) {
        ++link_flows[link];
      }
    }
    graph::EdgeId busiest = 0;
    for (graph::EdgeId e = 1;
         e < static_cast<graph::EdgeId>(g.EdgeCount()); ++e) {
      if (std::max(link_flows[2 * e], link_flows[2 * e + 1]) >
          std::max(link_flows[2 * busiest], link_flows[2 * busiest + 1])) {
        busiest = e;
      }
    }
    config.offered_load = 0.6;
    config.duration = 300;
    config.warmup = 50;
    config.monitor.enabled = true;
    config.monitor.window_width = 20.0;
    config.faults.KillLink(160.0, busiest);
  }
  sim::PacketSimResult Run(const sim::PacketSimConfig& run_config) const {
    return sim::RunPacketSim(net.Network(), routes, run_config);
  }
};

TEST_F(MonitorTest, AlertsSurfaceInJsonStatsAndChromeTrace) {
  const FaultedFabric fabric;
  SetThreadCount(1);
  const sim::PacketSimResult result = fabric.Run(fabric.config);
  ASSERT_GT(result.monitor.FireCount(), 0u);
  EXPECT_GT(obs::CounterValue("monitor/alerts_fired"), 0u);
  EXPECT_EQ(obs::CounterValue("monitor/runs"), 1u);

  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].sim, "packetsim");
  EXPECT_EQ(runs[0].faults_scheduled, 1u);

  std::ostringstream alerts;
  WriteAlertsJson(alerts, runs);
  const std::string doc = alerts.str();
  EXPECT_NE(doc.find("\"runs\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"kind\": \"fire\""), std::string::npos);
  EXPECT_NE(doc.find("\"entity\": \"link:"), std::string::npos);
  EXPECT_NE(doc.find("\"recovery\": {"), std::string::npos);

  std::ostringstream stats;
  obs::WriteStatsJson(stats, obs::TakeSnapshot(), runs);
  EXPECT_NE(stats.str().find("\"alerts\": {\"runs\": ["), std::string::npos);

  std::ostringstream trace;
  obs::WriteChromeTrace(trace, obs::TakeSnapshot(), runs);
  EXPECT_NE(trace.str().find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(trace.str().find("alert:fire"), std::string::npos);
  EXPECT_NE(trace.str().find("\"cat\": \"monitor\""), std::string::npos);

  // obs::Reset clears the run store.
  obs::Reset();
  EXPECT_TRUE(flight::TakeRunsSnapshot().empty());
}

TEST_F(MonitorTest, RecorderOffLeavesOneVerdictOnlyRecord) {
  const FaultedFabric fabric;
  SetThreadCount(1);
  const sim::PacketSimResult result = fabric.Run(fabric.config);
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  const flight::RunSnapshot& run = runs[0];
  EXPECT_EQ(run.run, 0);
  EXPECT_EQ(run.sim, "packetsim");
  EXPECT_TRUE(run.packets.empty());
  EXPECT_TRUE(run.flows.empty());
  EXPECT_TRUE(run.series.empty());
  EXPECT_TRUE(run.lanes.empty());
  EXPECT_TRUE(run.monitor.enabled);
  EXPECT_EQ(run.monitor.alerts.size(), result.monitor.alerts.size());
  EXPECT_EQ(run.faults_scheduled, 1u);
  EXPECT_EQ(obs::CounterValue("flight/runs"), 0u);
  EXPECT_EQ(obs::CounterValue("monitor/runs"), 1u);
}

// With the recorder on, a monitored run's alerts carry its flight run id in
// every sink: the alerts document names it, and the trace puts its alert
// instants in that run's process, beside its flight lanes.
TEST_F(MonitorTest, AlertsShareTheirFlightRunId) {
  const FaultedFabric fabric;
  flight::Config flight_config;
  flight_config.sample_rate = 0.2;
  flight::Enable(flight_config);
  SetThreadCount(1);
  sim::PacketSimConfig plain = fabric.config;
  plain.monitor.enabled = false;
  plain.faults = sim::FaultSchedule{};
  fabric.Run(plain);                                            // run 0
  const sim::PacketSimResult faulted = fabric.Run(fabric.config);  // run 1
  flight::Disable();
  ASSERT_GT(faulted.monitor.FireCount(), 0u);
  for (const Alert& alert : faulted.monitor.alerts) {
    const EntityInfo& entity = faulted.monitor.entities[alert.entity];
    // A link entity's index is its directed-link id: its flight lane's tid.
    if (entity.kind == EntityKind::kLink) {
      EXPECT_EQ(entity.key, static_cast<std::int64_t>(alert.entity));
    }
  }
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 2u);
  ASSERT_FALSE(runs[1].lanes.empty());

  std::ostringstream alerts;
  WriteAlertsJson(alerts, runs);
  const std::string doc = alerts.str();
  const std::size_t listed = doc.find("{\"run\": ");  // the one run listed
  EXPECT_NE(listed, std::string::npos);
  EXPECT_EQ(listed, doc.find("{\"run\": 1, "));
  EXPECT_EQ(doc.find("{\"run\": ", listed + 1), std::string::npos);

  std::ostringstream trace;
  obs::WriteChromeTrace(trace, obs::Snapshot{}, runs);
  std::istringstream lines{trace.str()};
  const std::regex pid_field{"\"pid\": ([0-9]+)"};
  std::size_t instants = 0;
  std::size_t run1_flight = 0;
  for (std::string line; std::getline(lines, line);) {
    std::smatch pid;
    if (!std::regex_search(line, pid, pid_field)) continue;
    EXPECT_LT(std::stoi(pid[1]), 900) << line;
    if (line.find("\"cat\": \"monitor\"") != std::string::npos) {
      ++instants;
      EXPECT_EQ(pid[1], "101") << line;
    }
    if (pid[1] == "101" && line.find("\"cat\": \"flight\"") != std::string::npos) {
      ++run1_flight;
    }
  }
  EXPECT_EQ(instants, faulted.monitor.alerts.size());
  EXPECT_GT(run1_flight, 0u);
  EXPECT_NE(trace.str().find("\"args\": {\"name\": \"flight:packetsim run 1\"}"),
            std::string::npos);
}

// Every file sink flag writes through FlushSinks' one snapshot, and an
// unwritable path throws, --alerts-json included.
TEST_F(MonitorTest, SinkFlagsWriteTheDocumentOrThrow) {
  MonitorConfig config;
  config.enabled = true;
  HealthMonitor monitor{config};
  monitor.AddEntity(EntityKind::kLink, 0);
  monitor.AddSignal("tx", SignalDirection::kDrop);
  monitor.Seal(2);
  {
    flight::RunScope run{"packetsim", 50.0};
    run.Publish(monitor.TakeResult(), 0);
  }
  const auto flush = [](const std::string& flag) {
    const std::vector<std::string> argv{"test_monitor", flag};
    const std::vector<const char*> raw{argv[0].c_str(), argv[1].c_str()};
    obs::ConfigureSinks(CliArgs{2, raw.data()});
    obs::FlushSinks();
  };

  const std::filesystem::path dir = ::testing::TempDir();
  const std::string path = (dir / "dcn_monitor_alerts.json").string();
  flush("--alerts-json=" + path);
  std::ostringstream expected;
  WriteAlertsJson(expected, flight::TakeRunsSnapshot());
  std::ifstream in{path};
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected.str() + "\n");
  std::filesystem::remove(path);

  // A path under a missing directory is an error for every file sink.
  const std::filesystem::path missing = dir / "dcn_no_such_dir";
  ASSERT_FALSE(std::filesystem::exists(missing));
  for (const char* flag : {"trace-out", "stats-json", "fct-csv", "fct-summary",
                           "timeseries-csv", "timeseries-json",
                           "alerts-json"}) {
    SCOPED_TRACE(flag);
    EXPECT_THROW(
        flush(std::string{"--"} + flag + "=" + (missing / "out").string()),
        InvalidArgument);
  }
  obs::EnableSpans(false);
  flight::Disable();
}

}  // namespace
}  // namespace dcn::obs::monitor
