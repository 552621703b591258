// Breadth-first search utilities. Distances are measured in *links* (a
// server->switch->server relay counts as 2), the convention used by the
// server-centric DCN literature for diameter and path-length comparisons.
//
// Two tiers:
//  * workspace kernels — the allocation-free core the hot paths use. Results
//    land in the caller's TraversalWorkspace (read via ws.Dist()); repeated
//    sweeps on one workspace cost O(frontier) to reset, not O(V). The
//    per-source BFS is the TraversalGraph template in graph/implicit.h, one
//    definition for a CsrView and an implicit topology alike; node and edge
//    failures both apply on a CsrView.
//  * Graph overloads — the original convenience signatures, now thin
//    wrappers that run the kernels on a borrowed per-thread workspace and
//    materialize the classic return values.
#pragma once

#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "graph/workspace.h"

namespace dcn::graph {

// --- CSR core (allocation-free in steady state) ---------------------------

// A shortest path src..dst inclusive (node sequence), or empty if
// unreachable. Early-exits the moment dst is settled instead of finishing the
// full sweep — on its way out of a large network that saves nearly the whole
// frontier beyond dist(dst).
std::vector<NodeId> ShortestPath(const CsrView& csr, NodeId src, NodeId dst,
                                 TraversalWorkspace& ws,
                                 const FailureSet* failures = nullptr);

// --- Graph wrappers (original signatures) ----------------------------------

// Distance (in links) from src to every node; kUnreachable where no live path
// exists. If `failures` is non-null, dead nodes/links are not traversed and a
// dead src yields all-unreachable.
std::vector<int> BfsDistances(const Graph& graph, NodeId src,
                              const FailureSet* failures = nullptr);

// A shortest path src..dst inclusive (node sequence), or empty if unreachable.
std::vector<NodeId> ShortestPath(const Graph& graph, NodeId src, NodeId dst,
                                 const FailureSet* failures = nullptr);

// Number of nodes reachable from src (including src itself).
std::size_t ReachableCount(const Graph& graph, NodeId src,
                           const FailureSet* failures = nullptr);

// True if every live node is reachable from every other live node. With no
// failures this is plain graph connectivity.
bool IsConnected(const Graph& graph, const FailureSet* failures = nullptr);

}  // namespace dcn::graph
