// F19 (ablation) — fault tolerance ACROSS topologies, each using its own
// repair machinery (ABCCC digit detours, BCube BSR-style detours, DCell and
// FiConn proxy rerouting, fat-tree ECMP re-hashing). Two views per failure rate:
// structured repair only (fallback off) and the connectivity ceiling
// (fallback on).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "graph/bfs.h"
#include "routing/baseline_fault.h"
#include "routing/fault_routing.h"
#include "sim/failures.h"
#include "sim/packetsim.h"
#include "topology/abccc.h"

int main(int argc, char** argv) {
  using namespace dcn;
  const bench::ExperimentEnv env{argc, argv};
  bench::PrintHeader("F19", "native fault repair per topology vs connectivity");

  const topo::Abccc abccc{topo::AbcccParams{4, 2, 2}};
  const topo::Abccc abccc3{topo::AbcccParams{4, 2, 3}};
  const topo::Bcube bcube{4, 2};
  const topo::Dcell dcell{4, 1};
  const topo::FiConn ficonn{8, 2};
  const topo::FatTree fattree{8};

  Table table{{"topology", "fail-rate", "repair-only", "with-fallback",
               "connected", "mean-stretch", "alarms", "ttd-med"}};
  Rng rng{bench::kDefaultSeed};
  const int trials = 300;

  auto run = [&](const topo::Topology& net, auto route_fn) {
    // Detection columns: the same failure draw replayed as a mid-run mass
    // kill under the online health monitor (obs/monitor.h), packet-level on
    // the healthy network. Fresh RNG streams only, so the repair columns
    // stay byte-identical.
    Rng mon_rng{bench::kDefaultSeed + 99};
    const std::vector<sim::Flow> mon_flows =
        sim::PermutationTraffic(net, mon_rng);
    const std::vector<routing::Route> mon_routes =
        bench::NativeRoutes(net, mon_flows);
    for (double rate : {0.02, 0.05, 0.10}) {
      Rng fail_rng{bench::kDefaultSeed + static_cast<std::uint64_t>(rate * 1e4)};
      const graph::FailureSet failures =
          sim::RandomFailures(net, rate, rate, rate / 2, fail_rng);
      int repaired = 0, total = 0, connected = 0;
      OnlineStats stretch;
      Rng pair_rng{bench::kDefaultSeed + 3};
      for (int t = 0; t < trials; ++t) {
        const auto servers = net.Servers();
        const graph::NodeId src = servers[pair_rng.NextUint64(servers.size())];
        graph::NodeId dst = src;
        while (dst == src) dst = servers[pair_rng.NextUint64(servers.size())];
        ++total;
        const std::vector<graph::NodeId> shortest =
            graph::ShortestPath(net.Network(), src, dst, &failures);
        if (!shortest.empty()) ++connected;

        routing::FaultRoutingOptions repair_only;
        repair_only.allow_bfs_fallback = false;
        const routing::Route structured =
            route_fn(src, dst, failures, rng, repair_only);
        if (!structured.Empty()) {
          ++repaired;
          if (!shortest.empty()) {
            stretch.Add(static_cast<double>(structured.LinkCount()) /
                        static_cast<double>(shortest.size() - 1));
          }
        }
      }
      sim::FaultSchedule schedule;
      for (graph::NodeId n = 0;
           n < static_cast<graph::NodeId>(net.Network().NodeCount()); ++n) {
        if (failures.NodeDead(n)) schedule.KillNode(600.0, n);
      }
      for (graph::EdgeId e = 0;
           e < static_cast<graph::EdgeId>(net.Network().EdgeCount()); ++e) {
        if (failures.EdgeDead(e)) schedule.KillLink(600.0, e);
      }
      sim::PacketSimConfig mon_config;
      mon_config.offered_load = 0.1;  // stable: fault-free drops nothing
      mon_config.duration = 1200;
      mon_config.warmup = 100;
      mon_config.queue_capacity = 64;
      mon_config.monitor.enabled = true;
      mon_config.monitor.window_width = 50;
      mon_config.faults = schedule;
      const sim::PacketSimResult mon_result =
          sim::RunPacketSim(net.Network(), mon_routes, mon_config);
      std::vector<double> ttds;
      for (const sim::DetectionOutcome& o : sim::MatchDetections(
               net.Network(), schedule, mon_result.monitor)) {
        if (o.detected) ttds.push_back(o.ttd);
      }
      std::sort(ttds.begin(), ttds.end());

      // Fallback-enabled success equals connectivity by construction
      // (verified in tests); report the ceiling from the BFS count.
      table.AddRow({net.Describe(), Table::Percent(rate, 0),
                    Table::Percent(static_cast<double>(repaired) / total, 1),
                    Table::Percent(static_cast<double>(connected) / total, 1),
                    Table::Percent(static_cast<double>(connected) / total, 1),
                    stretch.Count() > 0 ? Table::Cell(stretch.Mean(), 2)
                                        : std::string{"-"},
                    Table::Cell(mon_result.monitor.FireCount()),
                    ttds.empty() ? std::string{"-"}
                                 : Table::Cell(ttds[ttds.size() / 2], 0)});
    }
  };

  run(abccc, [&](auto src, auto dst, const auto& failures, Rng& r,
                 const routing::FaultRoutingOptions& o) {
    return routing::AbcccFaultTolerantRoute(abccc, src, dst, failures, r, o);
  });
  run(abccc3, [&](auto src, auto dst, const auto& failures, Rng& r,
                  const routing::FaultRoutingOptions& o) {
    return routing::AbcccFaultTolerantRoute(abccc3, src, dst, failures, r, o);
  });
  run(bcube, [&](auto src, auto dst, const auto& failures, Rng& r,
                 const routing::FaultRoutingOptions& o) {
    return routing::BcubeFaultTolerantRoute(bcube, src, dst, failures, r, o);
  });
  run(dcell, [&](auto src, auto dst, const auto& failures, Rng& r,
                 const routing::FaultRoutingOptions& o) {
    return routing::ProxyRepairRoute(dcell, src, dst, failures, r, o);
  });
  run(ficonn, [&](auto src, auto dst, const auto& failures, Rng& r,
                  const routing::FaultRoutingOptions& o) {
    return routing::ProxyRepairRoute(ficonn, src, dst, failures, r, o);
  });
  run(fattree, [&](auto src, auto dst, const auto& failures, Rng& r,
                   const routing::FaultRoutingOptions& o) {
    return routing::FatTreeFaultTolerantRoute(fattree, src, dst, failures, r, o);
  });

  table.Print(std::cout, "F19: structured repair vs connectivity ceiling");
  std::cout << "\nExpected shape: BCube's k+1 planes give it the highest "
               "repair-only success; ABCCC tracks it with c-1 planes plus "
               "crossbar detours (higher c closes the gap); DCell's proxy "
               "repair is weakest; fat-tree's ceiling itself drops because "
               "dead edge switches orphan their single-NIC hosts. Detection "
               "columns: alarm counts scale with the failed fraction on "
               "every topology, with median time-to-detect a few monitor "
               "windows — the detector grid is topology-agnostic.\n";
  return 0;
}
