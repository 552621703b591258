#include "graph/bfs.h"

#include "common/error.h"

namespace dcn::graph {

namespace {

void CheckSource(std::size_t node_count, NodeId src) {
  DCN_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < node_count,
              "BFS source out of range");
}

}  // namespace

std::vector<NodeId> ShortestPath(const CsrView& csr, NodeId src, NodeId dst,
                                 TraversalWorkspace& ws,
                                 const FailureSet* failures) {
  CheckSource(csr.NodeCount(), src);
  DCN_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < csr.NodeCount(),
              "BFS destination out of range");
  if (failures != nullptr &&
      (failures->NodeDead(src) || failures->NodeDead(dst))) {
    return {};
  }
  if (src == dst) return {src};

  ws.Begin(csr.NodeCount());
  std::vector<NodeId>& queue = ws.Frontier();
  ws.Settle(src, 0, kInvalidNode);
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId node = queue[head];
    const int next = ws.Dist(node) + 1;
    for (const HalfEdge& half : csr.Neighbors(node)) {
      if (failures != nullptr && !failures->HalfEdgeUsable(half)) continue;
      if (!ws.Settle(half.to, next, node)) continue;
      if (half.to == dst) {
        // Settled dst: stop the sweep and walk parents back to src.
        std::vector<NodeId> path;
        path.reserve(static_cast<std::size_t>(next) + 1);
        for (NodeId at = dst; at != kInvalidNode; at = ws.Parent(at)) {
          path.push_back(at);
        }
        return {path.rbegin(), path.rend()};
      }
      queue.push_back(half.to);
    }
  }
  return {};
}

std::vector<int> BfsDistances(const Graph& graph, NodeId src,
                              const FailureSet* failures) {
  CheckSource(graph.NodeCount(), src);
  TraversalScope ws;
  BfsDistances(graph.Csr(), src, *ws, failures);
  std::vector<int> dist(graph.NodeCount(), kUnreachable);
  for (const NodeId node : ws->VisitOrder()) dist[node] = ws->DistSettled(node);
  return dist;
}

std::vector<NodeId> ShortestPath(const Graph& graph, NodeId src, NodeId dst,
                                 const FailureSet* failures) {
  TraversalScope ws;
  return ShortestPath(graph.Csr(), src, dst, *ws, failures);
}

std::size_t ReachableCount(const Graph& graph, NodeId src,
                           const FailureSet* failures) {
  CheckSource(graph.NodeCount(), src);
  TraversalScope ws;
  // A dead src reaches 0 nodes — the same count the all-unreachable distance
  // vector used to produce.
  return BfsDistances(graph.Csr(), src, *ws, failures);
}

bool IsConnected(const Graph& graph, const FailureSet* failures) {
  if (graph.NodeCount() == 0) return true;
  NodeId start = kInvalidNode;
  std::size_t live = 0;
  for (NodeId node = 0; static_cast<std::size_t>(node) < graph.NodeCount();
       ++node) {
    if (failures != nullptr && failures->NodeDead(node)) continue;
    ++live;
    if (start == kInvalidNode) start = node;
  }
  if (live == 0) return true;
  return ReachableCount(graph, start, failures) == live;
}

}  // namespace dcn::graph
