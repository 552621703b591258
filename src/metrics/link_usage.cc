#include "metrics/link_usage.h"

#include <algorithm>

#include "common/error.h"

namespace dcn::metrics {

std::vector<LinkClassUsage> ClassifyLinkUsage(
    const topo::Abccc& net, const std::vector<routing::Route>& routes) {
  const graph::Graph& g = net.Network();
  const bool has_crossbars = net.Params().HasCrossbars();
  const int levels = net.Params().DigitCount();
  const int classes = (has_crossbars ? 1 : 0) + levels;

  // Per-edge class, resolved once.
  std::vector<int> edge_class(g.EdgeCount(), -1);
  std::vector<LinkClassUsage> usage(static_cast<std::size_t>(classes));
  if (has_crossbars) usage[0].name = "crossbar";
  for (int level = 0; level < levels; ++level) {
    usage[(has_crossbars ? 1 : 0) + level].name = "level-" + std::to_string(level);
  }
  for (graph::EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount();
       ++edge) {
    const auto [u, v] = g.Endpoints(edge);
    const graph::NodeId sw = g.IsSwitch(u) ? u : v;
    DCN_ASSERT(g.IsSwitch(sw));
    // Class 0 is the crossbars when present, then levels in order.
    edge_class[edge] = net.IsCrossbar(sw)
                           ? 0
                           : (has_crossbars ? 1 : 0) + net.LevelOfSwitch(sw);
    ++usage[edge_class[edge]].links;
  }

  // Directed traversal counts; one scratch link buffer serves every route.
  const graph::CsrView& csr = g.Csr();
  graph::EpochMarks used;
  std::vector<std::uint64_t> links;
  std::vector<std::uint64_t> load(g.EdgeCount() * 2, 0);
  for (const routing::Route& route : routes) {
    if (route.Empty() || route.LinkCount() == 0) continue;
    routing::RouteDirectedLinksInto(csr, route, used, links);
    for (std::uint64_t link : links) ++load[link];
  }
  std::vector<std::uint64_t> total(static_cast<std::size_t>(classes), 0);
  std::vector<std::uint64_t> peak(static_cast<std::size_t>(classes), 0);
  for (std::uint64_t link = 0; link < load.size(); ++link) {
    const int cls = edge_class[link / 2];
    total[cls] += load[link];
    peak[cls] = std::max(peak[cls], load[link]);
  }
  for (int cls = 0; cls < classes; ++cls) {
    usage[cls].traversals = total[cls];
    usage[cls].max_load = static_cast<double>(peak[cls]);
    usage[cls].mean_load =
        usage[cls].links == 0
            ? 0.0
            : static_cast<double>(total[cls]) /
                  (2.0 * static_cast<double>(usage[cls].links));
  }
  return usage;
}

}  // namespace dcn::metrics
