// Fault-tolerant routing for the non-cube baselines, so the fault-tolerance
// comparison (F19) measures each design's own repair story rather than
// handicapping the baselines with fail-stop routing (BCube repairs on the
// cube walk in routing/fault_routing.h):
//   * DCell, FiConn, any Topology — DFR-style proxy rerouting: when the
//     native route meets a dead element, detour through a random proxy.
//   * Fat-tree — ECMP re-hashing: try every (aggregation, core) choice for
//     the up-down path.
// Each router optionally falls back to BFS on the surviving graph (idealized
// link-state repair) so "success == reachable" can be verified; ablations
// disable the fallback to isolate the structured repair.
#pragma once

#include "common/rng.h"
#include "routing/fault_routing.h"  // options, stats, BFS fallback
#include "routing/route.h"
#include "topology/dcell.h"
#include "topology/fattree.h"
#include "topology/ficonn.h"

namespace dcn::routing {

// Topology-agnostic proxy repair: walk the native route; on the first dead
// element, retry via a random live proxy server (native route to the proxy,
// then on to the destination, recursively repaired to depth 3), loop-erase
// the stitched walk, and accept only if it validates under the failures.
// `allow_plane_detour` enables the proxies (each counted in
// stats->plane_detours). This is DCell's DFR-style repair generalized to any
// Topology; DCell and FiConn both use it.
Route ProxyRepairRoute(const topo::Topology& net, graph::NodeId src,
                       graph::NodeId dst, const graph::FailureSet& failures,
                       Rng& rng, const FaultRoutingOptions& options = {},
                       FaultRoutingStats* stats = nullptr);

// Fat-tree: tries all equal-cost (agg, core) choices in a random order
// (stats->plane_detours counts rejected candidates).
Route FatTreeFaultTolerantRoute(const topo::FatTree& net, graph::NodeId src,
                                graph::NodeId dst,
                                const graph::FailureSet& failures, Rng& rng,
                                const FaultRoutingOptions& options = {},
                                FaultRoutingStats* stats = nullptr);

// All equal-cost up-down candidate routes between two fat-tree servers
// (1, k/2, or (k/2)^2 candidates depending on locality). Useful for ECMP
// load-balancing comparisons as well.
std::vector<Route> FatTreeEcmpRoutes(const topo::FatTree& net, graph::NodeId src,
                                     graph::NodeId dst);

}  // namespace dcn::routing
