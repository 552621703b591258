// The one max-flow kernel: a unit-capacity Dinic over the undirected link
// graph (each live link is a pair of opposite unit arcs, the standard
// reduction for undirected flow). Every min-cut question the library asks is
// a unit-link cut, so this kernel answers all of them:
//   * edge-disjoint paths and pair connectivity (the BCCC/ABCCC papers'
//     "multiple near-equal parallel paths" claim, measured with the concrete
//     paths so their lengths can be compared);
//   * set-to-set cuts (bisection bandwidth), by contracting each side set
//     onto one node so every arc stays unit capacity;
//   * batched pair cuts and the cut tree's min-cut source sides
//     (EdgeConnectivityBatch; graph/cuttree.h builds on it).
//
// The workspace overloads run the solver on caller-provided scratch
// (graph/workspace.h): the flat arc arrays are overwritten, not reallocated,
// so steady-state sampling loops (metrics::SampledPairCuts) stay
// allocation-free. The Graph overloads borrow a per-thread workspace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/workspace.h"

namespace dcn::graph {

// A maximum-cardinality set of pairwise link-disjoint src->dst paths (each a
// node sequence src..dst). Stops early once `max_paths` are found. Paths come
// out shortest-first-ish (Dinic augments along level graphs) but no strict
// order is guaranteed. Empty result iff dst is unreachable.
std::vector<std::vector<NodeId>> EdgeDisjointPaths(
    const Graph& graph, NodeId src, NodeId dst,
    std::size_t max_paths = static_cast<std::size_t>(-1),
    const FailureSet* failures = nullptr);

std::vector<std::vector<NodeId>> EdgeDisjointPaths(
    const CsrView& csr, NodeId src, NodeId dst, FlowWorkspace& ws,
    std::size_t max_paths = static_cast<std::size_t>(-1),
    const FailureSet* failures = nullptr);

// Cardinality only (cheaper than materializing paths).
std::size_t EdgeConnectivity(const Graph& graph, NodeId src, NodeId dst,
                             const FailureSet* failures = nullptr);

std::size_t EdgeConnectivity(const CsrView& csr, NodeId src, NodeId dst,
                             FlowWorkspace& ws,
                             const FailureSet* failures = nullptr);

// Min link cut separating the node sets `side_a` and `side_b` (non-empty,
// disjoint, duplicates allowed) — bisection bandwidth in unit links. Each set
// is contracted onto one node during the arc build (links inside a set are
// dropped), and one unit-capacity solve runs between the two. Dead nodes and
// links under `failures` carry no arcs, so a dead side node adds nothing.
std::int64_t MinCutBetween(const Graph& graph, std::span<const NodeId> side_a,
                           std::span<const NodeId> side_b,
                           const FailureSet* failures = nullptr);

// Batched link-connectivity queries against one (graph, failure set). The
// flat arc arrays are built once in the constructor; each query restores the
// pristine capacities with a memcpy instead of re-scanning the edge list, so
// a batch of Q queries pays one arc build instead of Q. Every answer is
// bit-identical to the corresponding EdgeConnectivity call.
//
// Queries sorted by source get a second reuse level: pass
// `repeated_source = true` when more queries from the same src follow, and
// the first phase's level graph is cached and shared by the group.
class EdgeConnectivityBatch {
 public:
  EdgeConnectivityBatch(const CsrView& csr, FlowWorkspace& ws,
                        const FailureSet* failures = nullptr);

  std::size_t Connectivity(NodeId src, NodeId dst,
                           bool repeated_source = false);

  // The source side of the min cut the last Connectivity call found; `src`
  // must be that call's source. side[n] != 0 iff n is reachable from src in
  // the residual network — the same set for every maximum flow (the minimal
  // min cut), so the readout does not depend on which flow the solve
  // happened to push. Runs one fresh, untruncated residual BFS: the solve's
  // own levels stop at the sink's depth and are skipped entirely once the
  // degree bound is met. `side` is sized to the node count.
  void MinCutSourceSide(NodeId src, std::vector<char>& side);

 private:
  FlowWorkspace& ws_;
  const FailureSet* failures_;
  std::size_t nodes_;
  NodeId cached_src_ = kInvalidNode;  // source the cached levels belong to
  NodeId last_src_ = kInvalidNode;    // source of the last Connectivity call
  bool first_ = true;
};

}  // namespace dcn::graph
