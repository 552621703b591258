// Route representation and validation shared by all routing algorithms.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/workspace.h"

namespace dcn::routing {

// A route is a node sequence src..dst including every relay switch, so
// LinkCount() is the hop metric used throughout the paper family. An empty
// route means "no route found" (only fault-tolerant routing returns this).
struct Route {
  std::vector<graph::NodeId> hops;

  bool Empty() const { return hops.empty(); }
  std::size_t LinkCount() const { return hops.empty() ? 0 : hops.size() - 1; }
  graph::NodeId Src() const { return hops.front(); }
  graph::NodeId Dst() const { return hops.back(); }
};

// The link-choice rule every route walk shares (the four resolvers below,
// the cube repair walker, proxy repair): among the links from `from`'s
// adjacency slice (Graph or CsrView Neighbors(): insertion order, so
// ascending id among parallel links) to `to`, the first that is live under
// `failures` (every link when null) and that `unused(edge)` accepts;
// kInvalidEdge if none qualifies. `unused` runs only on live links to `to`,
// and after it accepts one no further link is tried.
template <typename Unused>
graph::EdgeId FirstUsableLink(std::span<const graph::HalfEdge> from,
                              graph::NodeId to,
                              const graph::FailureSet* failures,
                              Unused&& unused) {
  for (const graph::HalfEdge& half : from) {
    if (half.to == to &&
        (failures == nullptr || !failures->EdgeDead(half.edge)) &&
        unused(half.edge)) {
      return half.edge;
    }
  }
  return graph::kInvalidEdge;
}

// Checks that the route is walkable: endpoints are servers, consecutive hops
// are adjacent in the graph, every hop is alive under `failures`, and no link
// is traversed twice (routes must be link-simple). Returns an empty string if
// valid, else a diagnostic.
std::string ValidateRoute(const graph::Graph& graph, const Route& route,
                          const graph::FailureSet* failures = nullptr);

// Maps each consecutive hop pair to a live link id by FirstUsableLink,
// skipping links the route already crossed. Throws FailedPrecondition if the
// route is not walkable.
std::vector<graph::EdgeId> RouteLinks(const graph::Graph& graph, const Route& route,
                                      const graph::FailureSet* failures = nullptr);

// Removes cycles from a walk: whenever a node reappears, the hops between
// its first and second occurrence are spliced out (loop erasure). The result
// visits each node at most once, so it is link-simple; adjacency of the
// remaining consecutive pairs is preserved. Used by repair routers that
// stitch path segments and may double back.
Route EraseLoops(Route route);

// Directed link ids for each hop: edge_id * 2 + direction, where direction 0
// means the hop follows the edge's stored endpoint order. Full-duplex links
// have independent capacity per direction, so simulators and load balancers
// key their accounting on these ids.
std::vector<std::uint64_t> RouteDirectedLinks(const graph::Graph& graph,
                                              const Route& route);

// Allocation-free RouteDirectedLinks for bulk setup loops (simulators, load
// balancers), writing into `links` (cleared first). `used` is caller-owned
// epoch scratch for the link-simplicity check, reused across calls. Link
// choice, and the diagnostic after the message prefix, match
// RouteDirectedLinks exactly (all four resolvers run one walk); throws
// FailedPrecondition if the route is not walkable.
void RouteDirectedLinksInto(const graph::CsrView& csr, const Route& route,
                            graph::EpochMarks& used,
                            std::vector<std::uint64_t>& links);

}  // namespace dcn::routing
