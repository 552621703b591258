#include "routing/baseline_fault.h"

#include <algorithm>
#include <unordered_set>

#include "common/error.h"
#include "graph/bfs.h"

namespace dcn::routing {

namespace {

Route BfsFromSource(const topo::Topology& net, const graph::FailureSet& failures,
                    graph::NodeId src, graph::NodeId dst,
                    const FaultRoutingOptions& options,
                    FaultRoutingStats* stats) {
  if (!options.allow_bfs_fallback) return Route{};
  std::vector<graph::NodeId> path =
      graph::ShortestPath(net.Network(), src, dst, &failures);
  if (path.empty()) return Route{};
  if (stats != nullptr) stats->used_fallback = true;
  return Route{std::move(path)};
}

// ---------------------------------------------------------------------------
// BCube: digit-fixing walker (the crossbar-free cousin of the ABCCC walker).
// ---------------------------------------------------------------------------

class BcubeWalker {
 public:
  BcubeWalker(const topo::Bcube& net, const graph::FailureSet& failures,
              graph::NodeId src)
      : net_(net), failures_(failures), digits_(net.AddressOf(src).digits), cur_(src) {
    hops_.push_back(src);
    visited_.insert(src);
  }

  graph::NodeId Current() const { return cur_; }
  const topo::Digits& Digits() const { return digits_; }
  std::vector<graph::NodeId>& Hops() { return hops_; }
  std::size_t Links() const { return hops_.size() - 1; }

  bool TryFix(int level, int value) {
    const graph::NodeId sw = net_.LevelSwitchAt(level, digits_);
    topo::Digits next_digits = digits_;
    next_digits[level] = value;
    const graph::NodeId next = net_.ServerAt(next_digits, 0);
    if (visited_.count(next) > 0) return false;
    const graph::EdgeId in = UsableHop(cur_, sw);
    const graph::EdgeId out = UsableHop(sw, next);
    if (in == graph::kInvalidEdge || out == graph::kInvalidEdge) return false;
    hops_.push_back(sw);
    hops_.push_back(next);
    used_links_.insert(in);
    used_links_.insert(out);
    visited_.insert(next);
    digits_ = std::move(next_digits);
    cur_ = next;
    return true;
  }

 private:
  graph::EdgeId UsableHop(graph::NodeId from, graph::NodeId to) const {
    if (failures_.NodeDead(to)) return graph::kInvalidEdge;
    for (const graph::HalfEdge& half : net_.Network().Neighbors(from)) {
      if (half.to == to && !failures_.EdgeDead(half.edge) &&
          used_links_.count(half.edge) == 0) {
        return half.edge;
      }
    }
    return graph::kInvalidEdge;
  }

  const topo::Bcube& net_;
  const graph::FailureSet& failures_;
  topo::Digits digits_;
  graph::NodeId cur_;
  std::vector<graph::NodeId> hops_;
  std::unordered_set<graph::NodeId> visited_;
  std::unordered_set<graph::EdgeId> used_links_;
};

}  // namespace

Route BcubeFaultTolerantRoute(const topo::Bcube& net, graph::NodeId src,
                              graph::NodeId dst,
                              const graph::FailureSet& failures, Rng& rng,
                              const FaultRoutingOptions& options,
                              FaultRoutingStats* stats) {
  if (failures.NodeDead(src) || failures.NodeDead(dst)) return Route{};
  if (src == dst) return Route{{src}};

  const topo::Digits to = net.AddressOf(dst).digits;
  const int k = net.Params().Order();
  const int budget = options.max_greedy_links > 0
                         ? options.max_greedy_links
                         : 6 * (k + 1) + 8;

  BcubeWalker walker{net, failures, src};
  std::vector<int> remaining;
  {
    const topo::Digits from = net.AddressOf(src).digits;
    for (int level = 0; level <= k; ++level) {
      if (from[level] != to[level]) remaining.push_back(level);
    }
  }

  while (!remaining.empty()) {
    if (static_cast<int>(walker.Links()) > budget) {
      return BfsFromSource(net, failures, src, dst, options, stats);
    }
    std::vector<int> order = remaining;
    rng.Shuffle(order);

    bool advanced = false;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (walker.TryFix(order[i], to[order[i]])) {
        remaining.erase(std::find(remaining.begin(), remaining.end(), order[i]));
        if (stats != nullptr) {
          ++stats->digit_fixes;
          if (i > 0) ++stats->postponements;
        }
        advanced = true;
        break;
      }
      if (!options.allow_postpone) break;
    }
    if (advanced) continue;

    if (options.allow_plane_detour) {
      std::vector<int> levels(static_cast<std::size_t>(k + 1));
      for (int level = 0; level <= k; ++level) levels[level] = level;
      rng.Shuffle(levels);
      for (int level : levels) {
        std::vector<int> values;
        for (int v = 0; v < net.Params().LevelRadix(level); ++v) {
          if (v != walker.Digits()[level] && v != to[level]) values.push_back(v);
        }
        rng.Shuffle(values);
        for (int v : values) {
          const bool was_remaining =
              std::find(remaining.begin(), remaining.end(), level) !=
              remaining.end();
          if (walker.TryFix(level, v)) {
            if (stats != nullptr) ++stats->plane_detours;
            if (!was_remaining) remaining.push_back(level);
            advanced = true;
            break;
          }
        }
        if (advanced) break;
      }
    }
    if (advanced) continue;

    return BfsFromSource(net, failures, src, dst, options, stats);
  }
  DCN_ASSERT(walker.Current() == dst);
  return Route{std::move(walker.Hops())};
}

// ---------------------------------------------------------------------------
// DCell: recursive routing with proxy sub-cells, validated post-hoc.
// ---------------------------------------------------------------------------

namespace {

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
    for (const graph::HalfEdge& half : net_.Network().Neighbors(from)) {
      if (half.to == to && !failures_.EdgeDead(half.edge)) return true;
    }
    return false;
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

Route ProxyRepairImpl(const topo::Topology& net, graph::NodeId src,
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
  return BfsFromSource(net, failures, src, dst, options, stats);
}

}  // namespace

Route ProxyRepairRoute(const topo::Topology& net, graph::NodeId src,
                       graph::NodeId dst, const graph::FailureSet& failures,
                       Rng& rng, const FaultRoutingOptions& options,
                       FaultRoutingStats* stats) {
  return ProxyRepairImpl(net, src, dst, failures, rng, options, stats);
}

Route DcellFaultTolerantRoute(const topo::Dcell& net, graph::NodeId src,
                              graph::NodeId dst,
                              const graph::FailureSet& failures, Rng& rng,
                              const FaultRoutingOptions& options,
                              FaultRoutingStats* stats) {
  return ProxyRepairImpl(net, src, dst, failures, rng, options, stats);
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
  return BfsFromSource(net, failures, src, dst, options, stats);
}

}  // namespace dcn::routing
