// Stateless hop-by-hop forwarding.
//
// Source routing (routing/abccc_routing.h) computes a whole path at the
// sender; a deployed server-centric network instead forwards hop by hop:
// every server looks at the destination address in the packet and picks an
// output port, with no per-flow state and no header beyond the address.
// This module provides those per-hop decisions for the server-centric
// topologies. The decision rules are globally consistent (every server
// applies the same rule), which makes the induced walk loop-free; tests
// verify the walk terminates at the destination from every starting server.
//
// Fat-tree is excluded: its forwarding state lives in switches (longest
// prefix match), not servers, and its native Route() already models it.
#pragma once

#include <optional>

#include "common/error.h"
#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/bcube.h"
#include "topology/dcell.h"

namespace dcn::routing {

// One forwarding decision: relay via `via_switch` to `next_server`.
// `via_switch` is kInvalidNode for DCell's direct server-server links.
struct ServerHop {
  graph::NodeId via_switch = graph::kInvalidNode;
  graph::NodeId next_server = graph::kInvalidNode;
};

// ABCCC rule, at server <a; j> for destination <b; j'>:
//   * some differing level is owned by this role  -> fix the lowest such
//     level through its switch (no crossbar hop);
//   * otherwise, if any level differs             -> crossbar to the agent
//     of the lowest differing level;
//   * digits equal but roles differ               -> crossbar to the
//     destination's role.
// Returns nullopt when current == dst. Mixed-radix deployments apply the
// same rule.
std::optional<ServerHop> AbcccNextHop(const topo::Abccc& net,
                                      graph::NodeId current, graph::NodeId dst);

// BCube rule: correct the highest differing digit (matches BCubeRouting, so
// hop-by-hop forwarding reproduces the source route exactly).
std::optional<ServerHop> BcubeNextHop(const topo::Bcube& net,
                                      graph::NodeId current, graph::NodeId dst);

// DCell rule: the first hop of DCellRouting from the current server — the
// same decision the DCell paper's DFR protocol makes with global knowledge.
std::optional<ServerHop> DcellNextHop(const topo::Dcell& net,
                                      graph::NodeId current, graph::NodeId dst);

// Iterates a next-hop rule from src until dst, producing the full walk.
// Throws FailedPrecondition if the walk exceeds `max_links` (a consistent
// rule never should; the bound exists to catch rule bugs loudly).
template <typename NextHopFn>
Route ForwardWalk(graph::NodeId src, graph::NodeId dst, NextHopFn&& next_hop,
                  int max_links) {
  Route route{{src}};
  graph::NodeId current = src;
  while (current != dst) {
    const std::optional<ServerHop> hop = next_hop(current, dst);
    DCN_ASSERT(hop.has_value());
    if (hop->via_switch != graph::kInvalidNode) {
      route.hops.push_back(hop->via_switch);
    }
    route.hops.push_back(hop->next_server);
    current = hop->next_server;
    if (static_cast<int>(route.LinkCount()) > max_links) {
      throw FailedPrecondition{
          "hop-by-hop forwarding exceeded its link budget — inconsistent rule"};
    }
  }
  return route;
}

// Convenience wrappers with the topology's own route-length bound as budget.
Route AbcccForwardRoute(const topo::Abccc& net, graph::NodeId src,
                        graph::NodeId dst);
Route BcubeForwardRoute(const topo::Bcube& net, graph::NodeId src,
                        graph::NodeId dst);
Route DcellForwardRoute(const topo::Dcell& net, graph::NodeId src,
                        graph::NodeId dst);

}  // namespace dcn::routing
