#include "topology/abccc.h"

#include "common/error.h"

namespace dcn::topo {

Abccc::Abccc(ImplicitCube cube) : cube_(std::move(cube)) {
  graph::Graph& g = MutableNetwork();
  for (std::size_t node = 0; node < cube_.NodeCount(); ++node) {
    g.AddNode(node < cube_.ServerCount() ? graph::NodeKind::kServer
                                         : graph::NodeKind::kSwitch);
  }
  cube_.ForEachEdge([&](graph::NodeId server, graph::NodeId sw) { g.AddEdge(server, sw); });
  DCN_ASSERT(g.EdgeCount() == cube_.LinkCount());
}

}  // namespace dcn::topo
