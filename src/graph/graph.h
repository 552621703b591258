// Core network graph.
//
// Data-center networks here are undirected multigraphs with typed nodes:
// servers (which originate, forward, and sink traffic in server-centric
// designs) and switches (dumb crossbars that only relay). Links are
// full-duplex; one EdgeId covers both directions. The representation favors
// construction simplicity and cache-friendly iteration over mutation: the
// topology builders append nodes/edges once and never delete, while failures
// are modeled as an overlay mask (FailureSet) so a single built graph can be
// probed under many failure scenarios.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace dcn::graph {

class CsrView;

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

enum class NodeKind : std::uint8_t { kServer, kSwitch };

// One directed view of an undirected edge, as seen from the adjacency list of
// its source node.
struct HalfEdge {
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

class Graph {
 public:
  // Out of line because the cached CSR snapshot (an atomic shared_ptr to an
  // incomplete type here) needs csr.h; copies/moves transfer the topology,
  // and a copy starts with a cold cache.
  Graph();
  ~Graph();
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  NodeId AddNode(NodeKind kind);
  // Adds an undirected link. Self-loops are rejected; parallel links are
  // allowed (some topologies bundle links between the same pair).
  EdgeId AddEdge(NodeId u, NodeId v);

  std::size_t NodeCount() const { return kinds_.size(); }
  std::size_t EdgeCount() const { return endpoints_.size(); }

  NodeKind KindOf(NodeId node) const;
  bool IsServer(NodeId node) const { return KindOf(node) == NodeKind::kServer; }
  bool IsSwitch(NodeId node) const { return KindOf(node) == NodeKind::kSwitch; }

  std::span<const HalfEdge> Neighbors(NodeId node) const;
  std::size_t Degree(NodeId node) const { return Neighbors(node).size(); }
  std::pair<NodeId, NodeId> Endpoints(EdgeId edge) const;
  // True if some link directly connects u and v. O(min degree): the scan
  // runs over whichever endpoint has the smaller adjacency list.
  bool Adjacent(NodeId u, NodeId v) const;
  // The id of one link connecting u and v, or kInvalidEdge. Scans the
  // smaller endpoint's adjacency list (O(min degree)); because adjacency
  // lists append in edge-id order, the result is the LOWEST-id link between
  // the pair no matter which side is scanned — pinned by GraphTest.
  EdgeId FindEdge(NodeId u, NodeId v) const;

  std::size_t ServerCount() const { return servers_.size(); }
  std::size_t SwitchCount() const { return NodeCount() - ServerCount(); }
  // All server node ids, in insertion order.
  std::span<const NodeId> Servers() const { return servers_; }

  // Flat CSR snapshot of the current adjacency (see graph/csr.h) — the
  // representation every traversal hot path runs on. Built on first use and
  // cached; AddNode/AddEdge invalidate the cache. Concurrent Csr() calls are
  // safe (first-build races resolve to one winner); like every const method,
  // it must not race with mutation. The reference stays valid until the next
  // mutation of this graph.
  const CsrView& Csr() const;

 private:
  void CheckNode(NodeId node) const;

  std::vector<NodeKind> kinds_;
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::vector<std::pair<NodeId, NodeId>> endpoints_;
  std::vector<NodeId> servers_;
  mutable std::atomic<std::shared_ptr<const CsrView>> csr_;
};

// Overlay marking dead nodes and links. A dead node implicitly kills all of
// its links; a dead link leaves its endpoints alive.
class FailureSet {
 public:
  FailureSet() = default;
  explicit FailureSet(const Graph& graph)
      : FailureSet(graph.NodeCount(), graph.EdgeCount()) {}
  // For implicit (never materialized) graphs, where the node and link counts
  // are known arithmetically but no Graph exists.
  FailureSet(std::size_t nodes, std::size_t edges)
      : node_dead_(nodes, false), edge_dead_(edges, false) {}

  void KillNode(NodeId node);
  void KillEdge(EdgeId edge);

  bool NodeDead(NodeId node) const {
    return node >= 0 && static_cast<std::size_t>(node) < node_dead_.size() &&
           node_dead_[node];
  }
  bool EdgeDead(EdgeId edge) const {
    return edge >= 0 && static_cast<std::size_t>(edge) < edge_dead_.size() &&
           edge_dead_[edge];
  }
  // True if the hop across `half` out of any live node is usable.
  bool HalfEdgeUsable(const HalfEdge& half) const {
    return !EdgeDead(half.edge) && !NodeDead(half.to);
  }

  std::size_t DeadNodeCount() const;
  std::size_t DeadEdgeCount() const;

 private:
  std::vector<bool> node_dead_;
  std::vector<bool> edge_dead_;
};

}  // namespace dcn::graph
