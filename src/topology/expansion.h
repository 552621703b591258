// Expansion planning — the paper's headline operational claim.
//
// "When doing expansion, there is no need to alter the existing system but
// only to add new components into it. Thus the expansion cost that BCube
// suffers from can be significantly reduced in ABCCC."
//
// PlanXxxExpansion computes, for one order-growth step, exactly which
// components are added and which *existing* components must be touched
// (servers opened for a new NIC, switches replaced for more ports, cables
// re-run). VerifyAbcccExpansion proves the structural claim on real graphs:
// the old network embeds into the expanded one link-for-link, for order
// steps and mixed-radix slice steps alike.
//
// Crossbar sizing note: an ABCCC row grows by one server whenever
// ceil((k+1)/(c-1)) increases, which consumes a spare crossbar port. Like
// the BCCC paper we assume crossbars are commodity switches purchased with
// the target maximum row length in mind (a 48-port switch covers any
// practical k); rows never exceed a handful of servers. The report still
// surfaces `crossbar_ports_consumed` so a deployment can check its headroom.
#pragma once

#include <cstdint>
#include <string>

#include "topology/abccc.h"
#include "topology/bcube.h"
#include "topology/dcell.h"
#include "topology/fattree.h"

namespace dcn::topo {

struct ExpansionStep {
  std::string topology;
  std::string from;
  std::string to;

  std::uint64_t servers_before = 0;
  std::uint64_t servers_after = 0;
  std::uint64_t switches_before = 0;
  std::uint64_t switches_after = 0;
  std::uint64_t links_before = 0;
  std::uint64_t links_after = 0;

  // Disruption to the *existing* deployment:
  std::uint64_t existing_servers_modified = 0;   // need a new NIC installed
  std::uint64_t existing_switches_replaced = 0;  // need a larger-radix switch
  std::uint64_t existing_links_recabled = 0;     // cables moved or removed
  std::uint64_t crossbar_ports_consumed = 0;     // spare ports used (ABCCC only)

  std::uint64_t ServersAdded() const { return servers_after - servers_before; }
  std::uint64_t SwitchesAdded() const { return switches_after - switches_before; }
  std::uint64_t LinksAdded() const { return links_after - links_before; }
  // Total existing components disturbed; the paper's claim is that this is 0
  // for ABCCC and Θ(N) for BCube.
  std::uint64_t DisruptionTotal() const {
    return existing_servers_modified + existing_switches_replaced +
           existing_links_recabled;
  }
};

// ABCCC(n,k,c) -> ABCCC(n,k+1,c). Pure addition (see crossbar sizing note).
ExpansionStep PlanAbcccExpansion(const AbcccParams& from);

// Slice expansion: raise one level's radix by one (add a slice of rows plus
// that level's extra switch ports — modeled like crossbars as spare ports on
// switches purchased at target radix). Existing hardware is untouched.
ExpansionStep PlanSliceExpansion(const GeneralAbcccParams& from, int level);

// BCube(n,k) -> BCube(n,k+1). Every existing server needs one more NIC port
// and a new cable: the "expansion cost BCube suffers from".
ExpansionStep PlanBcubeExpansion(const BcubeParams& from);

// DCell(n,k) -> DCell(n,k+1). Every existing server needs one more NIC port;
// additionally the level-(k+1) complete-graph wiring spans old servers.
ExpansionStep PlanDcellExpansion(const DcellParams& from);

// FatTree(k) -> FatTree(k+2) (next even radix). Requires replacing every
// switch and re-cabling the fabric: fat-trees do not grow incrementally.
ExpansionStep PlanFatTreeExpansion(const FatTreeParams& from);

// Checks that the canonical embedding of `before` into `after` (same address,
// a new top digit padded with 0, same role) preserves every link. The shapes
// must be one growth step apart: same c, at most one new level, and no
// level's radix shrinking. Returns true iff the old deployment survives
// expansion untouched.
bool VerifyAbcccExpansion(const Abccc& before, const Abccc& after);

}  // namespace dcn::topo
