// Capital-expenditure and power model.
//
// The ICDCS'15 comparison prices each design from commodity components:
// servers, NIC ports, switches (chassis + per-port), and cables. Absolute
// dollar figures are assumptions (documented defaults below, roughly 2015
// commodity pricing); every comparison in the benches reports ratios and
// crossovers, which are insensitive to moderate price changes. All counts
// are derived from the built graph, not from formulas, so the model prices
// exactly the network that exists.
#pragma once

#include <cstdint>

#include "topology/implicit.h"
#include "topology/topology.h"

namespace dcn::topo {

struct CostModel {
  // Dollars.
  double server_usd = 2000.0;      // chassis + CPU + RAM, identical everywhere
  double nic_port_usd = 40.0;      // per NIC port actually cabled
  double switch_base_usd = 150.0;  // per switch chassis
  double switch_port_usd = 30.0;   // per switch port actually cabled
  double cable_usd = 10.0;         // per link

  // Watts.
  double server_watts = 200.0;
  double nic_port_watts = 3.0;
  double switch_base_watts = 30.0;
  double switch_port_watts = 2.0;
};

struct CapexReport {
  std::uint64_t servers = 0;
  std::uint64_t switches = 0;
  std::uint64_t links = 0;
  std::uint64_t nic_ports = 0;     // sum of server degrees
  std::uint64_t switch_ports = 0;  // sum of switch degrees

  double servers_usd = 0;
  double nics_usd = 0;
  double switches_usd = 0;
  double cables_usd = 0;
  double total_usd = 0;
  double network_usd = 0;  // total minus the servers themselves
  double per_server_usd = 0;
  double network_per_server_usd = 0;

  double total_watts = 0;
  double network_watts = 0;
  double watts_per_server = 0;
};

// Prices the topology's built graph under the model.
CapexReport EvaluateCost(const Topology& topology, const CostModel& model = {});

// Prices from aggregate counts — the shared pricing core. Lets callers price
// networks that were never materialized. Requires nic_ports + switch_ports ==
// 2 * links (every link pairs one NIC port with one switch port).
CapexReport EvaluateCostFromCounts(std::uint64_t servers,
                                   std::uint64_t switches, std::uint64_t links,
                                   std::uint64_t nic_ports,
                                   std::uint64_t switch_ports,
                                   const CostModel& model = {});

// Prices an implicit cube from its closed-form port totals: identical to
// pricing the materialized graph (it cables exactly the ports the arithmetic
// counts), but works at sizes no graph could hold.
CapexReport EvaluateCost(const ImplicitCube& cube, const CostModel& model = {});

}  // namespace dcn::topo
