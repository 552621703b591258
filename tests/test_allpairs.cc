// Exhaustive all-pairs properties on small networks — the strongest form of
// the routing correctness claims: EVERY ordered server pair, not a sample.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "graph/bfs.h"
#include "routing/route.h"
#include "topology/bcube.h"
#include "topology/factory.h"
#include "topology/fattree.h"

namespace dcn {
namespace {

class AllPairs : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<topo::Topology> Net() const {
    return topo::MakeTopology(GetParam());
  }
};

TEST_P(AllPairs, EveryRouteIsValidAndBounded) {
  const auto net = Net();
  for (const graph::NodeId src : net->Servers()) {
    for (const graph::NodeId dst : net->Servers()) {
      const routing::Route route{net->Route(src, dst)};
      ASSERT_EQ(routing::ValidateRoute(net->Network(), route), "")
          << net->Describe() << " " << src << "->" << dst;
      ASSERT_EQ(route.Src(), src);
      ASSERT_EQ(route.Dst(), dst);
      ASSERT_LE(static_cast<int>(route.LinkCount()), net->RouteLengthBound());
    }
  }
}

TEST_P(AllPairs, EveryRouteAtLeastShortestPath) {
  const auto net = Net();
  for (const graph::NodeId src : net->Servers()) {
    const std::vector<int> dist = graph::BfsDistances(net->Network(), src);
    for (const graph::NodeId dst : net->Servers()) {
      const routing::Route route{net->Route(src, dst)};
      ASSERT_GE(static_cast<int>(route.LinkCount()), dist[dst])
          << net->Describe() << " " << src << "->" << dst;
    }
  }
}

// Symmetry of the hop metric: |route(a,b)| need not equal |route(b,a)| for
// every algorithm, but the *shortest* distances must be symmetric in an
// undirected network.
TEST_P(AllPairs, ShortestDistancesAreSymmetric) {
  const auto net = Net();
  const auto servers = net->Servers();
  std::vector<std::vector<int>> dist;
  dist.reserve(servers.size());
  for (const graph::NodeId src : servers) {
    dist.push_back(graph::BfsDistances(net->Network(), src));
  }
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (std::size_t j = 0; j < servers.size(); ++j) {
      ASSERT_EQ(dist[i][servers[j]], dist[j][servers[i]]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallNets, AllPairs,
                         ::testing::Values("abccc:n=2,k=2,c=2",
                                           "abccc:n=3,k=1,c=2",
                                           "abccc:n=3,k=2,c=3",
                                           "abccc:n=4,k=1,c=3",
                                           "bccc:n=2,k=1", "bcube:n=3,k=1",
                                           "bcube:n=2,k=3", "dcell:n=3,k=1",
                                           "dcell:n=2,k=2", "ficonn:n=4,k=1",
                                           "ficonn:n=4,k=2", "ficonn:n=2,k=2",
                                           "fattree:k=4"));

}  // namespace
}  // namespace dcn
