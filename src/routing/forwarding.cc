#include "routing/forwarding.h"

namespace dcn::routing {

std::optional<ServerHop> AbcccNextHop(const topo::Abccc& net,
                                      graph::NodeId current, graph::NodeId dst) {
  if (current == dst) return std::nullopt;
  const auto& params = net.Params();
  const topo::AbcccAddress at = net.AddressOf(current);
  const topo::AbcccAddress to = net.AddressOf(dst);

  int lowest_differing = -1;
  int lowest_owned = -1;  // differing level whose agent is this server
  for (int level = params.DigitCount() - 1; level >= 0; --level) {
    if (at.digits[level] == to.digits[level]) continue;
    lowest_differing = level;
    if (params.AgentRole(level) == at.role) lowest_owned = level;
  }

  if (lowest_owned >= 0) {
    // Fix an owned level directly.
    topo::Digits next = at.digits;
    next[lowest_owned] = to.digits[lowest_owned];
    return ServerHop{net.LevelSwitchAt(lowest_owned, at.digits),
                     net.ServerAt(next, at.role)};
  }
  if (lowest_differing >= 0) {
    // Reposition to the agent of the lowest differing level.
    const int agent = params.AgentRole(lowest_differing);
    return ServerHop{net.CrossbarAt(net.RowOf(current)),
                     net.ServerAtRow(net.RowOf(current), agent)};
  }
  // Same row, wrong role.
  return ServerHop{net.CrossbarAt(net.RowOf(current)),
                   net.ServerAtRow(net.RowOf(current), to.role)};
}

std::optional<ServerHop> BcubeNextHop(const topo::Bcube& net,
                                      graph::NodeId current, graph::NodeId dst) {
  if (current == dst) return std::nullopt;
  const topo::Digits at = net.AddressOf(current).digits;
  const topo::Digits to = net.AddressOf(dst).digits;
  for (int level = net.Params().Order(); level >= 0; --level) {
    if (at[level] == to[level]) continue;
    topo::Digits next = at;
    next[level] = to[level];
    return ServerHop{net.LevelSwitchAt(level, at), net.ServerAt(next, 0)};
  }
  DCN_ASSERT(false);  // current != dst implies a differing digit
  return std::nullopt;
}

std::optional<ServerHop> DcellNextHop(const topo::Dcell& net,
                                      graph::NodeId current, graph::NodeId dst) {
  if (current == dst) return std::nullopt;
  const std::vector<graph::NodeId> route = net.Route(current, dst);
  DCN_ASSERT(route.size() >= 2);
  if (net.Network().IsSwitch(route[1])) {
    DCN_ASSERT(route.size() >= 3);
    return ServerHop{route[1], route[2]};
  }
  return ServerHop{graph::kInvalidNode, route[1]};
}

Route AbcccForwardRoute(const topo::Abccc& net, graph::NodeId src,
                        graph::NodeId dst) {
  return ForwardWalk(
      src, dst,
      [&](graph::NodeId at, graph::NodeId to) { return AbcccNextHop(net, at, to); },
      net.RouteLengthBound());
}

Route BcubeForwardRoute(const topo::Bcube& net, graph::NodeId src,
                        graph::NodeId dst) {
  return ForwardWalk(
      src, dst,
      [&](graph::NodeId at, graph::NodeId to) { return BcubeNextHop(net, at, to); },
      net.RouteLengthBound());
}

Route DcellForwardRoute(const topo::Dcell& net, graph::NodeId src,
                        graph::NodeId dst) {
  return ForwardWalk(
      src, dst,
      [&](graph::NodeId at, graph::NodeId to) { return DcellNextHop(net, at, to); },
      net.RouteLengthBound());
}

}  // namespace dcn::routing
