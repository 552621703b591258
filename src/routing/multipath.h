// Parallel-path construction — quantifies the family's "multiple near-equal
// parallel paths" property (F8).
#pragma once

#include <vector>

#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/topology.h"

namespace dcn::routing {

// ABCCC-structured candidates: one digit-fixing route per rotation of the
// sequential level order (each differing level gets to go first), so the
// first corrected plane — and therefore the initial level switch — differs
// between candidates. Same-row pairs yield the single crossbar route.
std::vector<Route> RotatedLevelOrderRoutes(const topo::Abccc& net,
                                           graph::NodeId src, graph::NodeId dst);

// Ground truth: a maximum set of link-disjoint paths from max-flow.
std::vector<Route> MaxDisjointRoutes(const topo::Topology& net, graph::NodeId src,
                                     graph::NodeId dst,
                                     std::size_t max_paths = static_cast<std::size_t>(-1));

}  // namespace dcn::routing
