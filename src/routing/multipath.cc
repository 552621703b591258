#include "routing/multipath.h"

#include "graph/paths.h"
#include "routing/route.h"

namespace dcn::routing {

std::vector<Route> RotatedLevelOrderRoutes(const topo::Abccc& net,
                                           graph::NodeId src, graph::NodeId dst) {
  const topo::AbcccAddress from = net.AddressOf(src);
  const topo::AbcccAddress to = net.AddressOf(dst);
  std::vector<int> differing;
  for (int level = 0; level < net.Params().DigitCount(); ++level) {
    if (from.digits[level] != to.digits[level]) differing.push_back(level);
  }
  if (differing.empty()) {
    return {Route{net.RouteWithLevelOrder(src, dst, {})}};
  }
  std::vector<Route> routes;
  routes.reserve(differing.size());
  for (std::size_t r = 0; r < differing.size(); ++r) {
    std::vector<int> order;
    order.reserve(differing.size());
    for (std::size_t i = 0; i < differing.size(); ++i) {
      order.push_back(differing[(r + i) % differing.size()]);
    }
    routes.push_back(Route{net.RouteWithLevelOrder(src, dst, order)});
  }
  return routes;
}

std::vector<Route> MaxDisjointRoutes(const topo::Topology& net, graph::NodeId src,
                                     graph::NodeId dst, std::size_t max_paths) {
  std::vector<Route> routes;
  for (std::vector<graph::NodeId>& path :
       graph::EdgeDisjointPaths(net.Network(), src, dst, max_paths)) {
    routes.push_back(Route{std::move(path)});
  }
  return routes;
}

}  // namespace dcn::routing
