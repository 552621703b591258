#include "graph/components.h"

namespace dcn::graph {

namespace {
// Interim label during Repair for live cone nodes awaiting re-attachment.
// Distinct from kDeadComponent so dead and pending nodes cannot be confused.
constexpr std::int32_t kPending = -2;
}  // namespace

ComponentForest::ComponentForest(const CsrView& csr) : csr_(&csr) {
  const std::size_t nodes = csr.NodeCount();
  parent_.assign(nodes, kInvalidNode);
  parent_edge_.assign(nodes, kInvalidEdge);
  intact_.comp.assign(nodes, kDeadComponent);
  intact_.count = 0;
  // One BFS per component seed in ascending id order: yields the canonical
  // labeling (identical to LabelComponents with no failures) and the
  // spanning forest in a single pass.
  std::vector<NodeId> queue;
  for (NodeId seed = 0; static_cast<std::size_t>(seed) < nodes; ++seed) {
    if (intact_.comp[static_cast<std::size_t>(seed)] != kDeadComponent) {
      continue;
    }
    const auto id = static_cast<std::int32_t>(intact_.count++);
    intact_.comp[static_cast<std::size_t>(seed)] = id;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId node = queue[head];
      for (const HalfEdge half : csr.Neighbors(node)) {
        if (intact_.comp[static_cast<std::size_t>(half.to)] !=
            kDeadComponent) {
          continue;
        }
        intact_.comp[static_cast<std::size_t>(half.to)] = id;
        parent_[static_cast<std::size_t>(half.to)] = node;
        parent_edge_[static_cast<std::size_t>(half.to)] = half.edge;
        queue.push_back(half.to);
      }
    }
  }
  // Children as a CSR (count, prefix-sum, fill) so Repair can expand a cone
  // without touching non-descendant nodes.
  child_offset_.assign(nodes + 1, 0);
  for (std::size_t node = 0; node < nodes; ++node) {
    if (parent_[node] != kInvalidNode) {
      child_offset_[static_cast<std::size_t>(parent_[node]) + 1] += 1;
    }
  }
  for (std::size_t node = 0; node < nodes; ++node) {
    child_offset_[node + 1] += child_offset_[node];
  }
  child_.resize(nodes == 0 ? 0 : static_cast<std::size_t>(child_offset_[nodes]));
  std::vector<std::int32_t> cursor(child_offset_.begin(),
                                   child_offset_.end() - 1);
  for (NodeId node = 0; static_cast<std::size_t>(node) < nodes; ++node) {
    if (parent_[static_cast<std::size_t>(node)] != kInvalidNode) {
      child_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(node)])]++)] = node;
    }
  }
}

std::size_t ComponentForest::Repair(std::span<const NodeId> dead_nodes,
                                    std::span<const EdgeId> dead_edges,
                                    const FailureSet& failures,
                                    ComponentRepairScratch& scratch,
                                    ComponentSet& out) const {
  const CsrView& csr = *csr_;
  const std::size_t nodes = csr.NodeCount();
  out.comp.assign(intact_.comp.begin(), intact_.comp.end());
  out.count = intact_.count;

  // Cone roots: dead nodes, plus the child endpoint of every dead tree edge
  // (a dead non-tree edge cannot change connectivity of the forest).
  scratch.in_cone.Begin(nodes);
  auto& cone = scratch.cone;
  cone.clear();
  for (const NodeId node : dead_nodes) {
    if (scratch.in_cone.Mark(node)) cone.push_back(node);
  }
  for (const EdgeId edge : dead_edges) {
    const auto [u, v] = csr.Endpoints(edge);
    // At most one endpoint has this edge as its parent edge (the child).
    if (parent_edge_[static_cast<std::size_t>(u)] == edge &&
        scratch.in_cone.Mark(u)) {
      cone.push_back(u);
    }
    if (parent_edge_[static_cast<std::size_t>(v)] == edge &&
        scratch.in_cone.Mark(v)) {
      cone.push_back(v);
    }
  }
  // Close under forest descendants: everything whose tree path to its root
  // crosses a kill. Nodes outside this cone keep a fully-live tree path to
  // their root, so their intact label still holds.
  for (std::size_t head = 0; head < cone.size(); ++head) {
    const NodeId node = cone[head];
    for (std::int32_t c = child_offset_[static_cast<std::size_t>(node)];
         c < child_offset_[static_cast<std::size_t>(node) + 1]; ++c) {
      const NodeId child = child_[static_cast<std::size_t>(c)];
      if (scratch.in_cone.Mark(child)) cone.push_back(child);
    }
  }

  for (const NodeId node : cone) {
    out.comp[static_cast<std::size_t>(node)] =
        failures.NodeDead(node) ? kDeadComponent : kPending;
  }

  // Re-attach: seed from cone nodes with a usable edge into already-labeled
  // territory, then flood the label through the pending region. Every >=0
  // label visible here is an intact id, and all labeled neighbors of one
  // pending region agree (they are connected post-failure), so the result is
  // independent of visit order.
  auto& queue = scratch.queue;
  queue.clear();
  for (const NodeId node : cone) {
    if (out.comp[static_cast<std::size_t>(node)] != kPending) continue;
    for (const HalfEdge half : csr.Neighbors(node)) {
      if (!failures.HalfEdgeUsable(half)) continue;
      const std::int32_t label = out.comp[static_cast<std::size_t>(half.to)];
      if (label >= 0) {
        out.comp[static_cast<std::size_t>(node)] = label;
        queue.push_back(node);
        break;
      }
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId node = queue[head];
    const std::int32_t label = out.comp[static_cast<std::size_t>(node)];
    for (const HalfEdge half : csr.Neighbors(node)) {
      if (!failures.HalfEdgeUsable(half)) continue;
      if (out.comp[static_cast<std::size_t>(half.to)] != kPending) continue;
      out.comp[static_cast<std::size_t>(half.to)] = label;
      queue.push_back(half.to);
    }
  }

  // Whatever is still pending was split off entirely: fresh components.
  for (const NodeId seed : cone) {
    if (out.comp[static_cast<std::size_t>(seed)] != kPending) continue;
    const auto id = static_cast<std::int32_t>(out.count++);
    out.comp[static_cast<std::size_t>(seed)] = id;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId node = queue[head];
      for (const HalfEdge half : csr.Neighbors(node)) {
        if (!failures.HalfEdgeUsable(half)) continue;
        if (out.comp[static_cast<std::size_t>(half.to)] != kPending) continue;
        out.comp[static_cast<std::size_t>(half.to)] = id;
        queue.push_back(half.to);
      }
    }
  }
  return cone.size();
}

}  // namespace dcn::graph
