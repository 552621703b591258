#include "routing/baseline_fault.h"

#include <utility>
#include <vector>

namespace dcn::routing {

namespace {

// ---------------------------------------------------------------------------
// Proxy repair: native routes with proxy detours, validated post-hoc.
// ---------------------------------------------------------------------------

// Generic native-route-with-proxy repair; Net needs only Topology's API.
class ProxyRepair {
 public:
  ProxyRepair(const topo::Topology& net, const graph::FailureSet& failures,
              Rng& rng, bool allow_proxy, FaultRoutingStats* stats)
      : net_(net),
        failures_(failures),
        rng_(rng),
        allow_proxy_(allow_proxy),
        stats_(stats) {}

  // Appends the path u..v (excluding u) to hops; false if repair failed.
  bool Build(graph::NodeId u, graph::NodeId v, int depth,
             std::vector<graph::NodeId>& hops) {
    if (u == v) return true;
    if (depth <= 0) return false;
    const std::vector<graph::NodeId> route = net_.Route(u, v);
    // Walk the preferred route; any dead relay or dead link triggers repair.
    for (std::size_t i = 1; i < route.size(); ++i) {
      const bool dead_node = failures_.NodeDead(route[i]);
      const bool dead_link = !HasLiveLink(route[i - 1], route[i]);
      if (dead_node || dead_link) {
        return allow_proxy_ && Detour(u, v, depth, hops);
      }
    }
    hops.insert(hops.end(), route.begin() + 1, route.end());
    return true;
  }

  bool HasLiveLink(graph::NodeId from, graph::NodeId to) const {
    return FirstUsableLink(net_.Network().Neighbors(from), to, &failures_,
                           [](graph::EdgeId) { return true; }) !=
           graph::kInvalidEdge;
  }

 private:
  bool Detour(graph::NodeId u, graph::NodeId v, int depth,
              std::vector<graph::NodeId>& hops) {
    if (stats_ != nullptr) ++stats_->plane_detours;
    // Route via a random live proxy server w: u -> w -> v, each leg using
    // the (possibly again repaired) preferred route one depth down.
    const auto servers = net_.Servers();
    for (int attempt = 0; attempt < 8; ++attempt) {
      const graph::NodeId w = servers[rng_.NextUint64(servers.size())];
      if (w == u || w == v || failures_.NodeDead(w)) continue;
      std::vector<graph::NodeId> trial;  // fresh per attempt
      if (!Build(u, w, depth - 1, trial)) continue;
      std::vector<graph::NodeId> tail;
      if (!Build(w, v, depth - 1, tail)) continue;
      hops.insert(hops.end(), trial.begin(), trial.end());
      hops.insert(hops.end(), tail.begin(), tail.end());
      return true;
    }
    return false;
  }

  const topo::Topology& net_;
  const graph::FailureSet& failures_;
  Rng& rng_;
  bool allow_proxy_;
  FaultRoutingStats* stats_;
};

}  // namespace

Route ProxyRepairRoute(const topo::Topology& net, graph::NodeId src,
                       graph::NodeId dst, const graph::FailureSet& failures,
                       Rng& rng, const FaultRoutingOptions& options,
                       FaultRoutingStats* stats) {
  if (failures.NodeDead(src) || failures.NodeDead(dst)) return Route{};
  if (src == dst) return Route{{src}};

  ProxyRepair repair{net, failures, rng, options.allow_plane_detour, stats};
  std::vector<graph::NodeId> hops{src};
  if (repair.Build(src, dst, /*depth=*/3, hops)) {
    // Stitched proxy segments can double back through a shared relay;
    // loop-erase to a node-simple (hence link-simple) walk, then verify.
    Route route = EraseLoops(Route{std::move(hops)});
    if (ValidateRoute(net.Network(), route, &failures).empty()) {
      if (stats != nullptr) ++stats->digit_fixes;
      return route;
    }
  }
  return BfsFallbackRoute(net.Network(), src, dst, failures, options, stats);
}

// ---------------------------------------------------------------------------
// Fat-tree: ECMP candidate enumeration.
// ---------------------------------------------------------------------------

std::vector<Route> FatTreeEcmpRoutes(const topo::FatTree& net, graph::NodeId src,
                                     graph::NodeId dst) {
  if (src == dst) return {Route{{src}}};
  const int half = net.Params().Half();
  const int sp = net.PodOf(src), se = net.EdgeIndexOf(src);
  const int dp = net.PodOf(dst), de = net.EdgeIndexOf(dst);

  if (sp == dp && se == de) {
    return {Route{{src, net.EdgeSwitch(sp, se), dst}}};
  }
  std::vector<Route> routes;
  if (sp == dp) {
    for (int agg = 0; agg < half; ++agg) {
      routes.push_back(Route{{src, net.EdgeSwitch(sp, se), net.AggSwitch(sp, agg),
                              net.EdgeSwitch(dp, de), dst}});
    }
    return routes;
  }
  for (int agg = 0; agg < half; ++agg) {
    for (int core = 0; core < half; ++core) {
      routes.push_back(Route{{src, net.EdgeSwitch(sp, se), net.AggSwitch(sp, agg),
                              net.CoreSwitch(agg * half + core),
                              net.AggSwitch(dp, agg), net.EdgeSwitch(dp, de),
                              dst}});
    }
  }
  return routes;
}

Route FatTreeFaultTolerantRoute(const topo::FatTree& net, graph::NodeId src,
                                graph::NodeId dst,
                                const graph::FailureSet& failures, Rng& rng,
                                const FaultRoutingOptions& options,
                                FaultRoutingStats* stats) {
  if (failures.NodeDead(src) || failures.NodeDead(dst)) return Route{};
  if (src == dst) return Route{{src}};

  std::vector<Route> candidates = FatTreeEcmpRoutes(net, src, dst);
  rng.Shuffle(candidates);
  for (Route& candidate : candidates) {
    if (ValidateRoute(net.Network(), candidate, &failures).empty()) {
      if (stats != nullptr) ++stats->digit_fixes;
      return std::move(candidate);
    }
    if (stats != nullptr) ++stats->plane_detours;
    if (!options.allow_postpone) break;  // single-candidate ablation
  }
  return BfsFallbackRoute(net.Network(), src, dst, failures, options, stats);
}

}  // namespace dcn::routing
