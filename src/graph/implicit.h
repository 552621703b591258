// Compile-time graph concept for traversals that never materialize edges.
//
// The cube topologies' neighbor relations are pure address arithmetic, so a
// BFS frontier is all the state a sweep really needs — the O(E) adjacency
// arrays a CsrView carries exist only to cache what a few divisions recompute.
// TraversalGraph names the surface the traversal kernels actually consume:
// node/server counts, an O(1) per-node degree bound, and an allocation-free
// `ForEachNeighbor(node, fn)` enumeration. CsrView models it (backed by its
// packed arrays); topo::ImplicitCube models it (backed by digit algebra), and
// both enumerate neighbors in the SAME order — edge-id order, since a
// materialized cube is the algebra's edge list — so every traversal result is
// bit-identical across the two representations (pinned by
// tests/test_implicit.cc).
//
// Determinism contract: a model's ForEachNeighbor must be a pure function of
// (instance, node) with a fixed enumeration order. Kernels add no ordering of
// their own beyond that and the deterministic parallel merge discipline
// (common/parallel.h), so results are independent of DCN_THREADS and of
// whether the graph was ever built.
//
// Failure overlays: ForEachLiveNeighbor below is the one rule every
// traversal (BfsDistances here, LabelComponents, MultiSourceBfs) uses to
// decide which neighbors it may enter. A graph with adjacency spans
// (HasAdjacencySpans: a CsrView) honors node and edge failures through its
// per-edge ids; implicit graphs have no EdgeIds, so only node failures apply
// and kernels taking a FailureSet for them require DeadEdgeCount() == 0.
#pragma once

#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.h"
#include "graph/graph.h"
#include "graph/workspace.h"

namespace dcn::graph {

namespace implicit_detail {

// Concept probe for ForEachNeighbor: a named functor rather than a lambda
// (lambdas inside requires-expressions are brittle across compilers).
struct NeighborProbe {
  void operator()(NodeId) const {}
};

}  // namespace implicit_detail

// The surface a traversal kernel needs; O(1) state per call, no edge lists.
template <typename G>
concept TraversalGraph =
    requires(const G& g, NodeId node, std::size_t i,
             implicit_detail::NeighborProbe probe) {
      { g.NodeCount() } -> std::convertible_to<std::size_t>;
      { g.ServerCount() } -> std::convertible_to<std::size_t>;
      { g.ServerIdAt(i) } -> std::convertible_to<NodeId>;
      { g.IsServer(node) } -> std::convertible_to<bool>;
      { g.DegreeBound() } -> std::convertible_to<std::size_t>;
      g.ForEachNeighbor(node, probe);
    };

// Refinement for materialized views: per-edge ids exist (so edge-failure
// overlays work) and neighbors are addressable as flat spans.
template <typename G>
concept HasAdjacencySpans =
    TraversalGraph<G> && requires(const G& g, NodeId node) {
      { g.AdjacentNodes(node) } -> std::convertible_to<std::span<const NodeId>>;
      { g.Neighbors(node) } -> std::convertible_to<std::span<const HalfEdge>>;
    };

// Calls fn(neighbor) for each neighbor of `node` a traversal may enter: all
// of them, or under `failures` those across a live link to a live node.
// Without adjacency spans there are no edge ids, so only node failures apply.
template <TraversalGraph G, typename Fn>
void ForEachLiveNeighbor(const G& g, const FailureSet* failures, NodeId node,
                         Fn&& fn) {
  if (failures == nullptr) {
    g.ForEachNeighbor(node, fn);
  } else if constexpr (HasAdjacencySpans<G>) {
    for (const HalfEdge& half : g.Neighbors(node)) {
      if (failures->HalfEdgeUsable(half)) fn(half.to);
    }
  } else {
    g.ForEachNeighbor(node, [&](const NodeId nb) {
      if (!failures->NodeDead(nb)) fn(nb);
    });
  }
}

// Rejects a failure set a graph cannot honor: one with dead links, on a graph
// without per-edge ids.
template <TraversalGraph G>
void RequireSupportedFailures(const FailureSet* failures) {
  if constexpr (!HasAdjacencySpans<G>) {
    DCN_REQUIRE(failures == nullptr || failures->DeadEdgeCount() == 0,
                "implicit graphs have no edge ids; only node failures apply");
  }
}

// Per-source BFS over any TraversalGraph. Distances land in `ws`; returns
// the number of nodes reached including src (0 if src is dead under
// `failures`); ws.VisitOrder() then lists the reached nodes in settle order.
template <TraversalGraph G>
std::size_t BfsDistances(const G& g, NodeId src, TraversalWorkspace& ws,
                         const FailureSet* failures = nullptr) {
  DCN_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < g.NodeCount(),
              "BFS source out of range");
  RequireSupportedFailures<G>(failures);
  ws.Begin(g.NodeCount());
  if (failures != nullptr && failures->NodeDead(src)) return 0;
  std::vector<NodeId>& queue = ws.Frontier();
  ws.Settle(src, 0);
  queue.push_back(src);
  // Distance-only sweep: the parent-less Settle writes one word per settled
  // node, and the queue is level-ordered, so tracking the level boundary
  // replaces a distance read per dequeued node.
  int next = 1;
  std::size_t level_end = queue.size();
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (head == level_end) {
      ++next;
      level_end = queue.size();
    }
    ForEachLiveNeighbor(g, failures, queue[head], [&](const NodeId to) {
      if (ws.Settle(to, next)) queue.push_back(to);
    });
  }
  return queue.size();
}

}  // namespace dcn::graph
