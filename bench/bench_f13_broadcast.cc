// F13 (journal extension) — one-to-all and one-to-many routing (GBC3 adds
// these to ABCCC): broadcast tree depth and link cost vs naive unicast, with
// the BCube broadcast as the baseline, plus a multicast group-size sweep.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "routing/abccc_routing.h"
#include "routing/broadcast.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

int main(int argc, char** argv) {
  using namespace dcn;
  const bench::ExperimentEnv env{argc, argv};
  bench::PrintHeader("F13", "one-to-all / one-to-many (GBC3 extension)");

  Table table{{"topology", "servers", "tree-depth", "tree-links",
               "unicast-links", "saving"}};
  Rng rng{bench::kDefaultSeed};

  auto unicast_total = [](const topo::Topology& net, graph::NodeId root) {
    std::size_t total = 0;
    for (const graph::NodeId server : net.Servers()) {
      if (server != root) {
        total += routing::Route{net.Route(root, server)}.LinkCount();
      }
    }
    return total;
  };

  for (const topo::AbcccParams& params :
       {topo::AbcccParams{4, 2, 2}, topo::AbcccParams{4, 2, 3},
        topo::AbcccParams{4, 3, 2}, topo::AbcccParams{6, 2, 2}}) {
    const topo::Abccc net{params};
    const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
    const std::size_t tree_links = routing::TreeLinkCount(net.Network(), tree);
    const std::size_t unicast = unicast_total(net, 0);
    table.AddRow({net.Describe(), Table::Cell(net.ServerCount()),
                  Table::Cell(tree.MaxDepth()), Table::Cell(tree_links),
                  Table::Cell(unicast),
                  Table::Cell(static_cast<double>(unicast) /
                                  static_cast<double>(tree_links),
                              1) +
                      "x"});
  }
  for (const topo::BcubeParams& params :
       {topo::BcubeParams{4, 2}, topo::BcubeParams{4, 3}}) {
    const topo::Bcube net{params};
    const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
    const std::size_t tree_links = routing::TreeLinkCount(net.Network(), tree);
    const std::size_t unicast = unicast_total(net, 0);
    table.AddRow({net.Describe(), Table::Cell(net.ServerCount()),
                  Table::Cell(tree.MaxDepth()), Table::Cell(tree_links),
                  Table::Cell(unicast),
                  Table::Cell(static_cast<double>(unicast) /
                                  static_cast<double>(tree_links),
                              1) +
                      "x"});
  }
  table.Print(std::cout, "F13a: one-to-all broadcast");

  // Multicast: cost vs group size in ABCCC(4,2,2).
  const topo::Abccc net{topo::AbcccParams{4, 2, 2}};
  Table multicast{{"group-size", "tree-links", "links/target", "depth"}};
  std::vector<graph::NodeId> pool(net.Servers().begin() + 1, net.Servers().end());
  rng.Shuffle(pool);
  for (std::size_t group : {2u, 8u, 32u, 96u, 191u}) {
    const std::vector<graph::NodeId> targets(pool.begin(), pool.begin() + group);
    const routing::SpanningTree tree = routing::AbcccMulticastTree(net, 0, targets);
    const std::size_t links = routing::TreeLinkCount(net.Network(), tree);
    multicast.AddRow({Table::Cell(group), Table::Cell(links),
                      Table::Cell(static_cast<double>(links) /
                                      static_cast<double>(group),
                                  2),
                      Table::Cell(tree.MaxDepth())});
  }
  multicast.Print(std::cout, "F13b: multicast cost vs group size (ABCCC(4,2,2))");
  std::cout << "\nExpected shape: broadcast depth is linear in k and link cost "
               "~N (each server receives once), several times cheaper than "
               "unicasts; multicast links/target falls as groups grow (shared "
               "prefixes) and approaches the broadcast cost at full groups.\n";
  return 0;
}
