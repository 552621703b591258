// One-to-all and one-to-many routing (the GBC3/journal extension).
//
// Broadcast builds a structured spanning tree: distribute within the root's
// row over the crossbar, then for each level l fan out across the level-l
// switches from every already-covered row (digit doubling — after level l the
// covered rows are exactly those matching the root on digits > l), finally
// crossbar-distributing inside each newly covered row. Depth is O(k), and
// every link carries the payload at most once. Multicast prunes the same
// tree to the target set.
#pragma once

#include <span>
#include <vector>

#include "routing/route.h"
#include "topology/abccc.h"

namespace dcn::routing {

struct SpanningTree {
  graph::NodeId root = graph::kInvalidNode;
  // Indexed by server node id. parent[s] is the previous server on the path
  // from the root (kInvalidNode for the root and for servers outside the
  // tree); via[s] is the relay switch between parent[s] and s.
  std::vector<graph::NodeId> parent;
  std::vector<graph::NodeId> via;
  // Distance from root in links (−1 if not in the tree).
  std::vector<int> depth;

  bool Contains(graph::NodeId server) const {
    return server >= 0 && static_cast<std::size_t>(server) < depth.size() &&
           depth[server] >= 0;
  }
  std::size_t CoveredCount() const;
  int MaxDepth() const;
  // The root->server path, empty if the server is not covered.
  Route PathTo(graph::NodeId server) const;
};

// Spanning tree covering every server, for every cube family: on mixed
// radices (partially grown deployments) too, and on BCube (m == 1, no
// crossbars) it is the BCube broadcast of Guo et al. §5, depth 2(k+1).
SpanningTree AbcccBroadcastTree(const topo::Abccc& net, graph::NodeId root);

// The broadcast tree pruned to the given targets (plus the relay servers
// needed to reach them).
SpanningTree AbcccMulticastTree(const topo::Abccc& net, graph::NodeId root,
                                std::span<const graph::NodeId> targets);

// Number of distinct links the tree uses (relay fan-out shares the uplink).
std::size_t TreeLinkCount(const graph::Graph& graph, const SpanningTree& tree);

// Failure-aware fallback: a BFS tree over the surviving graph from the
// root, covering every reachable live server (relay switches become `via`
// hops; DCell-style direct server-server links get via = kInvalidNode and a
// depth step of 1). The structured trees above assume a healthy fabric;
// operationally a broadcast after failures uses this.
SpanningTree FallbackBroadcastTree(const graph::Graph& graph, graph::NodeId root,
                                   const graph::FailureSet* failures = nullptr);

}  // namespace dcn::routing
