// Flat compressed-sparse-row snapshot of a Graph.
//
// The mutable Graph stores adjacency as vector<vector<HalfEdge>>: friendly to
// incremental construction, hostile to traversal (one heap block per node,
// pointer chase per hop). Every headline metric — diameter/ASPL sweeps,
// Dinic cuts, resilience trials, the simulators — bottoms out in BFS-style
// walks over that structure, so the hot paths run instead over this immutable
// view: one contiguous `targets` array indexed by per-node `offsets`, plus
// packed node-kind / server-index side arrays. Neighbor order is exactly the
// Graph's insertion order, so traversals over the view visit nodes and pick
// parallel links in the same order as traversals over the Graph — results are
// bit-identical, only faster.
//
// Obtain the view with Graph::Csr(); it is built once per topology and cached
// until the next mutation. Accessors skip range checks (the Graph-based
// wrappers validate at the boundary); all ids must be in range.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace dcn::graph {

class CsrView {
 public:
  explicit CsrView(const Graph& graph);

  std::size_t NodeCount() const { return kinds_.size(); }
  std::size_t EdgeCount() const { return endpoints_.size(); }

  std::span<const HalfEdge> Neighbors(NodeId node) const {
    return {targets_.data() + offsets_[node],
            targets_.data() + offsets_[node + 1]};
  }
  // Structure-of-arrays twin of Neighbors(): just the target node ids, in the
  // same order. Distance-only sweeps that never look at edge ids scan half
  // the bytes this way.
  std::span<const NodeId> AdjacentNodes(NodeId node) const {
    return {adjacent_.data() + offsets_[node],
            adjacent_.data() + offsets_[node + 1]};
  }
  std::size_t Degree(NodeId node) const {
    return static_cast<std::size_t>(offsets_[node + 1] - offsets_[node]);
  }
  // Maximum degree over all nodes — the TraversalGraph concept's per-node
  // work bound (graph/implicit.h).
  std::size_t DegreeBound() const { return degree_bound_; }
  // Generic neighbor enumeration, the shape implicit topologies share
  // (graph/implicit.h); inlines to the same loop as AdjacentNodes().
  template <typename Fn>
  void ForEachNeighbor(NodeId node, Fn&& fn) const {
    for (const NodeId to : AdjacentNodes(node)) fn(to);
  }

  NodeKind KindOf(NodeId node) const { return kinds_[node]; }
  bool IsServer(NodeId node) const { return kinds_[node] == NodeKind::kServer; }
  bool IsSwitch(NodeId node) const { return kinds_[node] == NodeKind::kSwitch; }

  std::pair<NodeId, NodeId> Endpoints(EdgeId edge) const {
    return endpoints_[edge];
  }

  std::size_t ServerCount() const { return servers_.size(); }
  std::span<const NodeId> Servers() const { return servers_; }
  // Servers()[i] — the indexed accessor the TraversalGraph concept uses so
  // implicit topologies (whose server ids are arithmetic) can match it.
  NodeId ServerIdAt(std::size_t i) const { return servers_[i]; }
  // Dense rank of `node` among servers (its position in Servers()), or -1 for
  // switches. Lets per-server accumulators use flat arrays instead of maps.
  std::int32_t ServerIndexOf(NodeId node) const { return server_index_[node]; }

  // Same contract as Graph::FindEdge: scans the smaller endpoint's neighbor
  // slice, so the cost is O(min degree); returns the lowest-id link between
  // the pair (adjacency lists are append-only in edge-id order), or
  // kInvalidEdge.
  EdgeId FindEdge(NodeId u, NodeId v) const;
  bool Adjacent(NodeId u, NodeId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

 private:
  std::vector<std::int32_t> offsets_;  // NodeCount()+1 entries into targets_
  std::vector<HalfEdge> targets_;      // all half-edges, grouped by source
  std::vector<NodeId> adjacent_;       // targets_[i].to, for edge-blind sweeps
  std::vector<NodeKind> kinds_;
  std::vector<std::pair<NodeId, NodeId>> endpoints_;
  std::vector<NodeId> servers_;
  std::vector<std::int32_t> server_index_;
  std::size_t degree_bound_ = 0;
};

}  // namespace dcn::graph
