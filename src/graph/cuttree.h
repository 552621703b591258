// Gomory–Hu cut tree (Gusfield's simplification): all-pairs min cuts of an
// undirected graph from V-1 max-flow solves instead of V²/2. The tree is
// flow-equivalent — for any pair (u, v) the min cut equals the smallest edge
// weight on the unique tree path between them — which is all the pairwise
// connectivity metrics need.
//
// Construction runs every solve on one EdgeConnectivityBatch (graph/paths.h):
// the unit arcs (failures applied) are built once and each solve restores
// the pristine capacities, then reads its min-cut source side with one
// residual BFS. Disconnected inputs (dead nodes, partitioned graphs) are
// handled naturally: the solve returns 0 and the tree records a weight-0
// edge.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace dcn::graph {

struct CutTree {
  // parent[0] is kInvalidNode (node 0 is the root); cut[n] is the min cut
  // separating n from parent[n] (cut[0] = 0, unused).
  std::vector<NodeId> parent;
  std::vector<std::int64_t> cut;
  std::vector<std::int32_t> depth;

  std::size_t NodeCount() const { return parent.size(); }

  // Exact min cut between u and v (u != v): minimum edge weight on the tree
  // path, found by walking the two nodes up to their meeting point. O(depth).
  std::int64_t MinCut(NodeId u, NodeId v) const;
};

// Builds the cut tree with V-1 unit-capacity Dinic solves (cuts in links);
// dead nodes/links from `failures` are excluded (a dead node becomes an
// isolated cut-0 leaf). Deterministic: node order fixes the solve sequence,
// so the tree is identical at any thread count.
CutTree BuildCutTree(const Graph& graph, const FailureSet* failures = nullptr);

}  // namespace dcn::graph
