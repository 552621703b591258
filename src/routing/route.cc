#include "routing/route.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/error.h"

namespace dcn::routing {

namespace {

// The one route walk behind ValidateRoute, RouteLinks, RouteDirectedLinks and
// RouteDirectedLinksInto: checks that `route` is non-empty, in range, alive
// under `failures` and server-ended, then resolves each hop u -> v by
// FirstUsableLink over the CSR (`unused` is the link-simplicity check),
// appending its directed id — edge_id * 2, plus 1 when u is the edge's
// second endpoint — to `links` (cleared first). Returns "" or the diagnostic.
template <typename Unused>
std::string WalkRoute(const graph::CsrView& csr, const Route& route,
                      const graph::FailureSet* failures, Unused&& unused,
                      std::vector<std::uint64_t>& links) {
  links.clear();
  if (route.hops.empty()) return "route is empty";
  for (const graph::NodeId node : route.hops) {
    if (node < 0 || static_cast<std::size_t>(node) >= csr.NodeCount()) {
      return "hop out of range: " + std::to_string(node);
    }
    if (failures != nullptr && failures->NodeDead(node)) {
      return "hop through dead node " + std::to_string(node);
    }
  }
  if (!csr.IsServer(route.Src())) return "route does not start at a server";
  if (!csr.IsServer(route.Dst())) return "route does not end at a server";

  links.reserve(route.LinkCount());
  for (std::size_t i = 0; i + 1 < route.hops.size(); ++i) {
    const graph::NodeId u = route.hops[i];
    const graph::NodeId v = route.hops[i + 1];
    if (u == v) return "route repeats node " + std::to_string(u);
    const graph::EdgeId link =
        FirstUsableLink(csr.Neighbors(u), v, failures, unused);
    if (link == graph::kInvalidEdge) {
      return "no usable link between hop " + std::to_string(i) + " (" +
             std::to_string(u) + ") and hop " + std::to_string(i + 1) + " (" +
             std::to_string(v) + ")";
    }
    links.push_back(static_cast<std::uint64_t>(link) * 2 +
                    (u == csr.Endpoints(link).first ? 0 : 1));
  }
  return {};
}

// WalkRoute whose link-simplicity check scans the links taken so far: a
// route is a few dozen hops, so the scan costs less than per-call O(E) marks
// and needs no scratch beyond `links` itself.
std::string WalkRoute(const graph::Graph& graph, const Route& route,
                      const graph::FailureSet* failures,
                      std::vector<std::uint64_t>& links) {
  return WalkRoute(
      graph.Csr(), route, failures,
      [&](graph::EdgeId edge) {
        return std::none_of(links.begin(), links.end(), [&](std::uint64_t id) {
          return id / 2 == static_cast<std::uint64_t>(edge);
        });
      },
      links);
}

// Throws FailedPrecondition naming `entry` when `problem` is a diagnostic.
void RequireWalkable(const char* entry, const std::string& problem) {
  if (!problem.empty()) {
    throw FailedPrecondition{std::string{entry} + " on invalid route: " +
                             problem};
  }
}

}  // namespace

std::string ValidateRoute(const graph::Graph& graph, const Route& route,
                          const graph::FailureSet* failures) {
  std::vector<std::uint64_t> links;
  return WalkRoute(graph, route, failures, links);
}

std::vector<graph::EdgeId> RouteLinks(const graph::Graph& graph, const Route& route,
                                      const graph::FailureSet* failures) {
  std::vector<std::uint64_t> directed;
  RequireWalkable("RouteLinks", WalkRoute(graph, route, failures, directed));
  std::vector<graph::EdgeId> links(directed.size());
  std::transform(directed.begin(), directed.end(), links.begin(),
                 [](std::uint64_t id) { return static_cast<graph::EdgeId>(id / 2); });
  return links;
}

Route EraseLoops(Route route) {
  std::vector<graph::NodeId> out;
  out.reserve(route.hops.size());
  std::unordered_map<graph::NodeId, std::size_t> position;
  for (const graph::NodeId hop : route.hops) {
    const auto seen = position.find(hop);
    if (seen != position.end()) {
      // Splice out the cycle: drop everything after the first occurrence.
      for (std::size_t i = seen->second + 1; i < out.size(); ++i) {
        position.erase(out[i]);
      }
      out.resize(seen->second + 1);
      continue;
    }
    position[hop] = out.size();
    out.push_back(hop);
  }
  return Route{std::move(out)};
}

std::vector<std::uint64_t> RouteDirectedLinks(const graph::Graph& graph,
                                              const Route& route) {
  std::vector<std::uint64_t> links;
  RequireWalkable("RouteLinks", WalkRoute(graph, route, nullptr, links));
  return links;
}

void RouteDirectedLinksInto(const graph::CsrView& csr, const Route& route,
                            graph::EpochMarks& used,
                            std::vector<std::uint64_t>& links) {
  used.Begin(csr.EdgeCount());
  RequireWalkable(
      "RouteDirectedLinks",
      WalkRoute(
          csr, route, nullptr,
          [&](graph::EdgeId edge) { return used.Mark(edge); }, links));
}

}  // namespace dcn::routing
