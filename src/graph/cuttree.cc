#include "graph/cuttree.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "graph/paths.h"
#include "graph/workspace.h"
#include "obs/obs.h"

namespace dcn::graph {

std::int64_t CutTree::MinCut(NodeId u, NodeId v) const {
  DCN_REQUIRE(u != v, "min cut needs two distinct nodes");
  DCN_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < parent.size() &&
                  v >= 0 && static_cast<std::size_t>(v) < parent.size(),
              "cut tree node out of range");
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  while (u != v) {
    // Lift whichever endpoint is deeper; at equal depth either works, and
    // lifting u keeps the walk deterministic.
    if (depth[static_cast<std::size_t>(u)] >=
        depth[static_cast<std::size_t>(v)]) {
      best = std::min(best, cut[static_cast<std::size_t>(u)]);
      u = parent[static_cast<std::size_t>(u)];
    } else {
      best = std::min(best, cut[static_cast<std::size_t>(v)]);
      v = parent[static_cast<std::size_t>(v)];
    }
  }
  return best;
}

CutTree BuildCutTree(const Graph& graph, const FailureSet* failures) {
  const std::size_t nodes = graph.NodeCount();
  CutTree tree;
  tree.parent.assign(nodes, 0);
  tree.cut.assign(nodes, 0);
  tree.depth.assign(nodes, 0);
  if (nodes == 0) return tree;
  tree.parent[0] = kInvalidNode;

  // Gusfield: every node starts parented to node 0; solving (i, parent[i])
  // re-parents the not-yet-processed nodes that fall on i's side of the cut.
  // One batch — the arcs (failures applied) are built once and every solve
  // restores their pristine capacities.
  FlowScope ws;
  EdgeConnectivityBatch batch{graph.Csr(), *ws, failures};
  std::vector<char> side;
  {
    OBS_SPAN("cuttree/build");
    for (std::size_t i = 1; i < nodes; ++i) {
      const NodeId src = static_cast<NodeId>(i);
      const NodeId dst = tree.parent[i];
      tree.cut[i] = static_cast<std::int64_t>(batch.Connectivity(src, dst));
      batch.MinCutSourceSide(src, side);
      for (std::size_t j = i + 1; j < nodes; ++j) {
        if (tree.parent[j] == dst && side[j]) {
          tree.parent[j] = src;
        }
      }
    }
  }
  static obs::Counter& c_solves = obs::GetCounter("cuttree/solves");
  c_solves.Add(nodes - 1);

  // Depths for the path-min query. Gusfield parents always point at a
  // lower-numbered node... except after re-parenting, where parent[j] = i < j
  // still holds (j > i in the loop above), so ascending order is topological.
  for (std::size_t i = 1; i < nodes; ++i) {
    tree.depth[i] = tree.depth[static_cast<std::size_t>(tree.parent[i])] + 1;
  }
  return tree;
}

}  // namespace dcn::graph
