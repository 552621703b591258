#include "routing/fault_routing.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/error.h"
#include "graph/bfs.h"

namespace dcn::routing {

namespace {

// Greedy walk state over the ABCCC address space.
class GreedyWalker {
 public:
  GreedyWalker(const topo::Abccc& net, const graph::FailureSet& failures,
               graph::NodeId src)
      : net_(net),
        failures_(failures),
        digits_(net.AddressOf(src).digits),
        role_(net.AddressOf(src).role),
        cur_(src) {
    hops_.push_back(src);
    visited_.insert(src);
  }

  graph::NodeId Current() const { return cur_; }
  // A live, not-yet-traversed link from `from` to `to`, or kInvalidEdge.
  // Routes must be link-simple: re-crossing a link means the walk wasted
  // both traversals, so the walker never does it.
  graph::EdgeId UsableHop(graph::NodeId from, graph::NodeId to) const {
    if (failures_.NodeDead(to)) return graph::kInvalidEdge;
    return FirstUsableLink(net_.Network().Neighbors(from), to, &failures_,
                           [&](graph::EdgeId link) {
                             return used_links_.count(link) == 0;
                           });
  }
  int Role() const { return role_; }
  const topo::Digits& Digits() const { return digits_; }
  std::vector<graph::NodeId>& Hops() { return hops_; }
  std::size_t Links() const { return hops_.size() - 1; }

  // Attempts the full correction "set digit `level` to `value`" including any
  // crossbar repositioning; commits only if every hop is alive and the
  // landing servers were not visited before (loop prevention).
  bool TryFix(int level, int value) {
    const graph::Graph& g = net_.Network();
    const int agent = net_.Params().AgentRole(level);

    std::vector<graph::NodeId> steps;
    std::vector<graph::EdgeId> links;
    graph::NodeId at = cur_;
    if (role_ != agent) {
      const graph::NodeId xbar =
          net_.CrossbarAt(net_.RowIndex(digits_));
      const graph::NodeId agent_server = net_.ServerAt(digits_, agent);
      if (visited_.count(agent_server) > 0) return false;
      const graph::EdgeId up = UsableHop(at, xbar);
      const graph::EdgeId down = UsableHop(xbar, agent_server);
      if (up == graph::kInvalidEdge || down == graph::kInvalidEdge) return false;
      steps.push_back(xbar);
      steps.push_back(agent_server);
      links.push_back(up);
      links.push_back(down);
      at = agent_server;
    }
    const graph::NodeId level_switch = net_.LevelSwitchAt(level, digits_);
    topo::Digits next_digits = digits_;
    next_digits[level] = value;
    const graph::NodeId next_server = net_.ServerAt(next_digits, agent);
    if (visited_.count(next_server) > 0) return false;
    const graph::EdgeId in = UsableHop(at, level_switch);
    const graph::EdgeId out = UsableHop(level_switch, next_server);
    if (in == graph::kInvalidEdge || out == graph::kInvalidEdge) return false;
    steps.push_back(level_switch);
    steps.push_back(next_server);
    links.push_back(in);
    links.push_back(out);

    for (graph::NodeId step : steps) {
      hops_.push_back(step);
      if (g.IsServer(step)) visited_.insert(step);
    }
    for (graph::EdgeId link : links) used_links_.insert(link);
    digits_ = std::move(next_digits);
    role_ = agent;
    cur_ = next_server;
    return true;
  }

  // Crossbar move to another role within the current row.
  bool TryRoleMove(int target_role) {
    if (role_ == target_role) return true;
    const graph::NodeId xbar =
        net_.CrossbarAt(net_.RowIndex(digits_));
    const graph::NodeId target = net_.ServerAt(digits_, target_role);
    if (visited_.count(target) > 0) return false;
    const graph::EdgeId up = UsableHop(cur_, xbar);
    const graph::EdgeId down = UsableHop(xbar, target);
    if (up == graph::kInvalidEdge || down == graph::kInvalidEdge) return false;
    hops_.push_back(xbar);
    hops_.push_back(target);
    used_links_.insert(up);
    used_links_.insert(down);
    visited_.insert(target);
    role_ = target_role;
    cur_ = target;
    return true;
  }

 private:
  const topo::Abccc& net_;
  const graph::FailureSet& failures_;
  topo::Digits digits_;
  int role_;
  graph::NodeId cur_;
  std::vector<graph::NodeId> hops_;
  std::unordered_set<graph::NodeId> visited_;
  std::unordered_set<graph::EdgeId> used_links_;
};

// The repair loop both cubes share; `budget` caps the greedy phase's links.
// On BCube (m = 1) every level's agent is role 0, so no crossbar hop is ever
// taken and the agent-first stable_sort below keeps the shuffled order.
Route CubeRepairRoute(const topo::Abccc& net, graph::NodeId src,
                      graph::NodeId dst, const graph::FailureSet& failures,
                      Rng& rng, const FaultRoutingOptions& options,
                      FaultRoutingStats* stats, int budget) {
  if (failures.NodeDead(src) || failures.NodeDead(dst)) return Route{};
  if (src == dst) return Route{{src}};

  const auto fallback = [&] {
    return BfsFallbackRoute(net.Network(), src, dst, failures, options, stats);
  };
  const topo::AbcccAddress to = net.AddressOf(dst);

  GreedyWalker walker{net, failures, src};
  std::vector<int> remaining;
  {
    const topo::AbcccAddress from = net.AddressOf(src);
    for (int level = 0; level <= net.Params().Order(); ++level) {
      if (from.digits[level] != to.digits[level]) remaining.push_back(level);
    }
  }

  while (!remaining.empty()) {
    if (static_cast<int>(walker.Links()) > budget) return fallback();
    // Prefer levels whose agent is the current role (cheapest), then the
    // rest; shuffle within each class so repeated attempts explore planes.
    std::vector<int> order = remaining;
    rng.Shuffle(order);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const int role = walker.Role();
      return (net.Params().AgentRole(a) == role) >
             (net.Params().AgentRole(b) == role);
    });

    bool advanced = false;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const int level = order[i];
      if (walker.TryFix(level, to.digits[level])) {
        remaining.erase(std::find(remaining.begin(), remaining.end(), level));
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
      // Detour through ANY level — including ones already matching the
      // destination — to reach a row served by different (hopefully live)
      // switches. A correct digit disturbed this way rejoins `remaining`.
      std::vector<int> detour_levels;
      for (int level = 0; level <= net.Params().Order(); ++level) {
        detour_levels.push_back(level);
      }
      rng.Shuffle(detour_levels);
      for (int level : detour_levels) {
        std::vector<int> values;
        for (int v = 0; v < net.Params().LevelRadix(level); ++v) {
          if (v != walker.Digits()[level] && v != to.digits[level]) {
            values.push_back(v);
          }
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

    return fallback();
  }

  // All digits corrected; land on the destination's role.
  if (walker.Role() != to.role && !walker.TryRoleMove(to.role)) {
    return fallback();
  }
  DCN_ASSERT(walker.Current() == dst);
  return Route{std::move(walker.Hops())};
}

}  // namespace

Route AbcccFaultTolerantRoute(const topo::Abccc& net, graph::NodeId src,
                              graph::NodeId dst,
                              const graph::FailureSet& failures, Rng& rng,
                              const FaultRoutingOptions& options,
                              FaultRoutingStats* stats) {
  return CubeRepairRoute(net, src, dst, failures, rng, options, stats,
                         8 * (net.Params().Order() + 1) + 16);
}

Route BcubeFaultTolerantRoute(const topo::Bcube& net, graph::NodeId src,
                              graph::NodeId dst,
                              const graph::FailureSet& failures, Rng& rng,
                              const FaultRoutingOptions& options,
                              FaultRoutingStats* stats) {
  return CubeRepairRoute(net, src, dst, failures, rng, options, stats,
                         6 * (net.Params().Order() + 1) + 8);
}

Route BfsFallbackRoute(const graph::Graph& graph, graph::NodeId src,
                       graph::NodeId dst, const graph::FailureSet& failures,
                       const FaultRoutingOptions& options,
                       FaultRoutingStats* stats) {
  if (!options.allow_bfs_fallback) return Route{};
  std::vector<graph::NodeId> path = graph::ShortestPath(graph, src, dst, &failures);
  if (path.empty()) return Route{};
  if (stats != nullptr) stats->used_fallback = true;
  return Route{std::move(path)};
}

}  // namespace dcn::routing
