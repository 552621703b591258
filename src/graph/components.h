// Connected-component labeling and incremental repair under failures.
//
// The Monte-Carlo resilience metrics only ever ask "does src reach dst?" for
// sampled pairs. A BFS per source answers that in O(sources · (V+E)); one
// component labeling answers it for EVERY pair in O(V+E): reachable iff same
// component id. ComponentForest goes further for the fault-trial loop, where
// each trial deletes a handful of nodes/edges from the same intact graph: it
// keeps the intact BFS spanning forest and, per trial, re-levels only the
// affected cone (descendants of the kills) instead of recomputing from
// scratch — the rest of the graph provably keeps its intact labels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "graph/workspace.h"

namespace dcn::graph {

// Label of dead (or not-yet-labeled) nodes.
inline constexpr std::int32_t kDeadComponent = -1;

// A partition of the live nodes into connected components. `comp` holds one
// id per node (kDeadComponent for dead nodes); `count` is an upper bound on
// ids in use (after ComponentForest::Repair some intact ids may have lost
// all members). `queue` is internal BFS scratch, reused across labelings.
struct ComponentSet {
  std::vector<std::int32_t> comp;
  std::size_t count = 0;
  std::vector<NodeId> queue;

  std::size_t NodeCount() const { return comp.size(); }
  std::int32_t ComponentOf(NodeId node) const {
    return comp[static_cast<std::size_t>(node)];
  }
  // True iff both nodes are live and connected — the reachability predicate
  // the resilience metrics sample.
  bool SameComponent(NodeId a, NodeId b) const {
    return comp[static_cast<std::size_t>(a)] >= 0 &&
           comp[static_cast<std::size_t>(a)] ==
               comp[static_cast<std::size_t>(b)];
  }
};

// Labels the connected components of any TraversalGraph (graph/implicit.h)
// minus `failures`. Ids are canonical — ascending in each component's lowest
// node id — so the labeling is a pure function of the graph and failure set.
// A CsrView honors node and edge kills; graphs without adjacency spans carry
// no edge ids, so there `failures` must be node-only (ForEachLiveNeighbor).
template <TraversalGraph G>
void LabelComponents(const G& g, const FailureSet* failures,
                     ComponentSet& out) {
  RequireSupportedFailures<G>(failures);
  const std::size_t nodes = g.NodeCount();
  out.comp.assign(nodes, kDeadComponent);
  out.count = 0;
  for (NodeId seed = 0; static_cast<std::size_t>(seed) < nodes; ++seed) {
    if (out.comp[static_cast<std::size_t>(seed)] != kDeadComponent) continue;
    if (failures != nullptr && failures->NodeDead(seed)) continue;
    const auto id = static_cast<std::int32_t>(out.count++);
    out.comp[static_cast<std::size_t>(seed)] = id;
    out.queue.clear();
    out.queue.push_back(seed);
    for (std::size_t head = 0; head < out.queue.size(); ++head) {
      ForEachLiveNeighbor(g, failures, out.queue[head], [&](NodeId next) {
        if (out.comp[static_cast<std::size_t>(next)] != kDeadComponent) return;
        out.comp[static_cast<std::size_t>(next)] = id;
        out.queue.push_back(next);
      });
    }
  }
}

// Per-trial scratch for ComponentForest::Repair; create one per thread and
// reuse it — steady state allocates nothing.
struct ComponentRepairScratch {
  EpochMarks in_cone;
  std::vector<NodeId> cone;
  std::vector<NodeId> queue;
};

// Intact BFS spanning forest of a CsrView plus its component labeling, built
// once; Repair() then derives the post-failure components of any small
// kill set by re-leveling only the affected cone. Thread-safe: Repair is
// const, all mutation goes through the caller's scratch/output.
class ComponentForest {
 public:
  explicit ComponentForest(const CsrView& csr);

  // The failure-free labeling (canonical ids, as LabelComponents).
  const ComponentSet& Intact() const { return intact_; }

  // Components of (csr − failures). `dead_nodes`/`dead_edges` must enumerate
  // exactly the kills recorded in `failures`. Nodes outside the cone —
  // descendants of dead nodes and of tree edges that died — keep their
  // intact ids (their tree path to the root is untouched, so they provably
  // stay root-connected); cone nodes re-attach to an adjacent labeled region
  // or, if fully split off, receive fresh ids >= Intact().count. The result
  // is partition-equal (not id-equal) to a from-scratch LabelComponents.
  // Returns the cone size — the number of re-leveled nodes.
  std::size_t Repair(std::span<const NodeId> dead_nodes,
                     std::span<const EdgeId> dead_edges,
                     const FailureSet& failures, ComponentRepairScratch& scratch,
                     ComponentSet& out) const;

 private:
  const CsrView* csr_;
  ComponentSet intact_;
  std::vector<NodeId> parent_;       // kInvalidNode at forest roots
  std::vector<EdgeId> parent_edge_;  // tree edge to parent, kInvalidEdge at roots
  std::vector<std::int32_t> child_offset_;  // children in CSR layout
  std::vector<NodeId> child_;
};

}  // namespace dcn::graph
