// F24 (observability) — online fault detection: a deterministic mid-run
// fault schedule (link kill, link degrade, switch kill) hits a loaded
// ABCCC(4,3,2) while the health monitor (obs/monitor.h) watches per-link /
// per-switch tx+drop windows. The table sweeps monitor window width x
// offered load and reports false alarms on a fault-free control run,
// time-to-detect per fault, and the post-fault delivery ratio from the
// monitor's recovery curve. Run with --alerts-json / --stats-json /
// --trace-out to export the alert log itself.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "routing/route.h"
#include "sim/failures.h"
#include "sim/packetsim.h"
#include "topology/abccc.h"

int main(int argc, char** argv) {
  using namespace dcn;
  const bench::ExperimentEnv env{argc, argv};
  bench::PrintHeader("F24", "online fault detection: time-to-detect vs "
                            "monitor window width and load");

  const topo::Abccc net{topo::AbcccParams{4, 3, 2}};
  const graph::Graph& graph = net.Network();

  Rng rng{bench::kDefaultSeed};
  Rng traffic_rng = rng.Fork();
  const std::vector<sim::Flow> flows =
      sim::PermutationTraffic(net, traffic_rng);
  const std::vector<routing::Route> routes = bench::NativeRoutes(net, flows);

  // Fault targets from the static route load. Per-directed-link flow counts
  // pick (a) the busiest edge to kill, (b) the busiest transmitting switch
  // (not touching the killed edge) to kill, and (c) the busiest edge
  // disjoint from both kill targets to degrade. The sweep stays at stable
  // loads where the fault-free network drops nothing — at saturation
  // steady-state drops equal arrivals minus service whatever the buffer
  // size, so congestion both hides a buffer shrink and raises legitimate
  // drop alarms of its own (a detectability limit documented in
  // docs/OBSERVABILITY.md). On a stable well-shared link, degrading the
  // buffer to capacity 1 turns absorbed bursts into a steady drop signal
  // the spike detector integrates to a firing.
  std::vector<std::uint32_t> link_flows(2 * graph.EdgeCount(), 0);
  for (const routing::Route& route : routes) {
    for (std::uint64_t link : routing::RouteDirectedLinks(graph, route)) {
      ++link_flows[link];
    }
  }
  const auto edge_flows = [&](graph::EdgeId e) {
    return std::max(link_flows[2 * e], link_flows[2 * e + 1]);
  };
  graph::EdgeId kill_edge = 0;
  const auto edge_count = static_cast<graph::EdgeId>(graph.EdgeCount());
  for (graph::EdgeId e = 1; e < edge_count; ++e) {
    if (edge_flows(e) > edge_flows(kill_edge)) kill_edge = e;
  }
  const auto [ku, kv] = graph.Endpoints(kill_edge);
  std::vector<std::uint64_t> node_tx(graph.NodeCount(), 0);
  for (std::uint64_t link = 0; link < link_flows.size(); ++link) {
    const auto [u, v] = graph.Endpoints(static_cast<graph::EdgeId>(link / 2));
    node_tx[link % 2 == 0 ? u : v] += link_flows[link];
  }
  graph::NodeId kill_switch = graph::kInvalidNode;
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(graph.NodeCount()); ++n) {
    if (!graph.IsSwitch(n) || n == ku || n == kv) continue;
    if (kill_switch == graph::kInvalidNode || node_tx[n] > node_tx[kill_switch])
      kill_switch = n;
  }
  graph::EdgeId degrade_edge = graph::kInvalidEdge;
  for (graph::EdgeId e = 0; e < edge_count; ++e) {
    const auto [u, v] = graph.Endpoints(e);
    if (e == kill_edge || u == ku || u == kv || v == ku || v == kv ||
        u == kill_switch || v == kill_switch || edge_flows(e) == 0) {
      continue;
    }
    if (degrade_edge == graph::kInvalidEdge ||
        edge_flows(e) > edge_flows(degrade_edge)) {
      degrade_edge = e;
    }
  }

  // Fault times are multiples of every swept width, so each fault lands
  // exactly on a window boundary in every configuration.
  sim::FaultSchedule schedule;
  schedule.DegradeLink(500.0, degrade_edge, 1)
      .KillLink(600.0, kill_edge)
      .KillNode(700.0, kill_switch);
  std::cout << "faults: degrade edge " << degrade_edge << " (cap 64->1, t=500)"
            << ", kill edge " << kill_edge << " (t=600)"
            << ", kill switch " << kill_switch << " (t=700)\n\n";

  Table table{{"width", "load", "ctrl-alarms", "alarms", "detected",
               "ttd-degrade", "ttd-kill", "ttd-switch", "post/pre"}};
  for (const double width : {20.0, 50.0, 100.0}) {
    for (const double load : {0.05, 0.10}) {
      sim::PacketSimConfig config;
      config.offered_load = load;
      config.duration = 1200;
      config.warmup = 100;
      config.queue_capacity = 64;
      config.monitor.enabled = true;
      config.monitor.window_width = width;

      // Fault-free control: same seed, same traffic — every alarm the
      // monitor raises here is false by construction.
      const sim::PacketSimResult control =
          sim::RunPacketSim(graph, routes, config);

      config.faults = schedule;
      const sim::PacketSimResult faulted =
          sim::RunPacketSim(graph, routes, config);
      const std::vector<sim::DetectionOutcome> outcomes =
          sim::MatchDetections(graph, schedule, faulted.monitor);
      int detected = 0;
      for (const sim::DetectionOutcome& o : outcomes) detected += o.detected;

      // Recovery: mean measured deliveries per window, steady pre-fault
      // window [250, 500) vs settled post-fault tail [900, 1200).
      const auto mean_delivered = [&](double from, double to) {
        const std::uint32_t lo = obs::WindowOf(from, width);
        const std::uint32_t hi = std::min<std::uint32_t>(
            obs::WindowOf(to, width),
            static_cast<std::uint32_t>(
                faulted.monitor.delivered_per_window.size()));
        double sum = 0.0;
        for (std::uint32_t w = lo; w < hi; ++w) {
          sum += faulted.monitor.delivered_per_window[w];
        }
        return hi > lo ? sum / (hi - lo) : 0.0;
      };
      const double pre = mean_delivered(250.0, 500.0);
      const double post = mean_delivered(900.0, 1200.0);

      const auto ttd_cell = [&](const sim::DetectionOutcome& o) {
        return o.detected ? Table::Cell(o.ttd, 0) : std::string{"-"};
      };
      table.AddRow({Table::Cell(width, 0), Table::Cell(load, 2),
                    Table::Cell(control.monitor.FireCount()),
                    Table::Cell(faulted.monitor.FireCount()),
                    std::to_string(detected) + "/3", ttd_cell(outcomes[0]),
                    ttd_cell(outcomes[1]), ttd_cell(outcomes[2]),
                    Table::Percent(pre > 0 ? post / pre : 0.0, 1)});
    }
  }
  table.Print(std::cout, "F24: detection latency and false alarms");
  std::cout << "\nExpected shape: zero control alarms at every cell; TTD "
               "grows roughly linearly with window width (the CUSUM needs a "
               "few windows of evidence), so narrow windows detect fastest "
               "while wide windows smooth noise; the faulted run's alarm "
               "count exceeds 3 because dead links starve their downstream "
               "neighbors (a true cascade, not false alarms); delivery "
               "settles below the pre-fault rate once three elements are "
               "gone. The quiet degrade is the hard case: at the lightest "
               "load the narrowest window may miss it entirely (too few "
               "burst drops per window to integrate), while wider windows "
               "trade detection latency for that sensitivity.\n";
  return 0;
}
