#include "topology/cost_model.h"

#include "common/error.h"

namespace dcn::topo {

CapexReport EvaluateCost(const Topology& topology, const CostModel& model) {
  const graph::Graph& g = topology.Network();
  std::uint64_t nic_ports = 0;
  std::uint64_t switch_ports = 0;
  for (graph::NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
       ++node) {
    if (g.IsServer(node)) {
      nic_ports += g.Degree(node);
    } else {
      switch_ports += g.Degree(node);
    }
  }
  return EvaluateCostFromCounts(g.ServerCount(), g.SwitchCount(),
                                g.EdgeCount(), nic_ports, switch_ports, model);
}

CapexReport EvaluateCost(const ImplicitCube& cube, const CostModel& model) {
  return EvaluateCostFromCounts(cube.ServerCount(), cube.SwitchCount(),
                                cube.LinkCount(), cube.NicPortTotal(),
                                cube.SwitchPortTotal(), model);
}

CapexReport EvaluateCostFromCounts(std::uint64_t servers,
                                   std::uint64_t switches, std::uint64_t links,
                                   std::uint64_t nic_ports,
                                   std::uint64_t switch_ports,
                                   const CostModel& model) {
  CapexReport report;
  report.servers = servers;
  report.switches = switches;
  report.links = links;
  report.nic_ports = nic_ports;
  report.switch_ports = switch_ports;
  DCN_ASSERT(report.nic_ports + report.switch_ports == 2 * report.links);

  report.servers_usd = static_cast<double>(report.servers) * model.server_usd;
  report.nics_usd = static_cast<double>(report.nic_ports) * model.nic_port_usd;
  report.switches_usd =
      static_cast<double>(report.switches) * model.switch_base_usd +
      static_cast<double>(report.switch_ports) * model.switch_port_usd;
  report.cables_usd = static_cast<double>(report.links) * model.cable_usd;
  report.total_usd = report.servers_usd + report.nics_usd + report.switches_usd +
                     report.cables_usd;
  report.network_usd = report.total_usd - report.servers_usd;
  const auto n = static_cast<double>(report.servers);
  report.per_server_usd = report.total_usd / n;
  report.network_per_server_usd = report.network_usd / n;

  report.network_watts =
      static_cast<double>(report.nic_ports) * model.nic_port_watts +
      static_cast<double>(report.switches) * model.switch_base_watts +
      static_cast<double>(report.switch_ports) * model.switch_port_watts;
  report.total_watts =
      report.network_watts + static_cast<double>(report.servers) * model.server_watts;
  report.watts_per_server = report.total_watts / n;
  return report;
}

}  // namespace dcn::topo
