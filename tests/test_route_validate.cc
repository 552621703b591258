#include "routing/route.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/workspace.h"

namespace dcn::routing {
namespace {

using graph::Graph;
using graph::NodeKind;

// server0 - switch2 - server1, plus direct server0 - server1 link.
Graph MakeRelay() {
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kServer);  // 1
  g.AddNode(NodeKind::kSwitch);  // 2
  g.AddEdge(0, 2);               // edge 0
  g.AddEdge(2, 1);               // edge 1
  g.AddEdge(0, 1);               // edge 2
  return g;
}

TEST(RouteTest, BasicAccessors) {
  const Route route{{0, 2, 1}};
  EXPECT_FALSE(route.Empty());
  EXPECT_EQ(route.LinkCount(), 2u);
  EXPECT_EQ(route.Src(), 0);
  EXPECT_EQ(route.Dst(), 1);
  EXPECT_TRUE(Route{}.Empty());
  EXPECT_EQ(Route{}.LinkCount(), 0u);
}

TEST(ValidateRouteTest, AcceptsWalkableRoutes) {
  const Graph g = MakeRelay();
  EXPECT_EQ(ValidateRoute(g, Route{{0, 2, 1}}), "");
  EXPECT_EQ(ValidateRoute(g, Route{{0, 1}}), "");
  EXPECT_EQ(ValidateRoute(g, Route{{0}}), "");  // self route
}

TEST(ValidateRouteTest, RejectsStructuralProblems) {
  const Graph g = MakeRelay();
  EXPECT_NE(ValidateRoute(g, Route{}), "");
  EXPECT_NE(ValidateRoute(g, Route{{0, 9}}), "");        // out of range
  EXPECT_NE(ValidateRoute(g, Route{{2, 1}}), "");        // starts at switch
  EXPECT_NE(ValidateRoute(g, Route{{0, 2}}), "");        // ends at switch
  EXPECT_NE(ValidateRoute(g, Route{{1, 0, 0}}), "");     // repeated node
  // Reusing the single 0-1 link back and forth must be rejected.
  EXPECT_NE(ValidateRoute(g, Route{{0, 1, 0, 1}}), "");
}

TEST(ValidateRouteTest, RejectsDeadElements) {
  const Graph g = MakeRelay();
  graph::FailureSet failures{g};
  failures.KillNode(2);
  EXPECT_NE(ValidateRoute(g, Route{{0, 2, 1}}, &failures), "");
  EXPECT_EQ(ValidateRoute(g, Route{{0, 1}}, &failures), "");
  graph::FailureSet link_failure{g};
  link_failure.KillEdge(2);
  EXPECT_NE(ValidateRoute(g, Route{{0, 1}}, &link_failure), "");
  EXPECT_EQ(ValidateRoute(g, Route{{0, 2, 1}}, &link_failure), "");
}

TEST(RouteLinksTest, MapsHopsToEdges) {
  const Graph g = MakeRelay();
  const std::vector<graph::EdgeId> links = RouteLinks(g, Route{{0, 2, 1}});
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], 0);
  EXPECT_EQ(links[1], 1);
}

TEST(RouteLinksTest, PicksLiveParallelLink) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  const graph::EdgeId first = g.AddEdge(0, 1);
  const graph::EdgeId second = g.AddEdge(0, 1);
  graph::FailureSet failures{g};
  failures.KillEdge(first);
  const std::vector<graph::EdgeId> links =
      RouteLinks(g, Route{{0, 1}}, &failures);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0], second);
}

TEST(EraseLoopsTest, RemovesSimpleBacktrack) {
  // 0 -> 2 -> 1 -> 2 -> 1 loops; erasure keeps the first visit of each node.
  const Route erased = EraseLoops(Route{{0, 2, 1, 2, 1}});
  EXPECT_EQ(erased.hops, (std::vector<graph::NodeId>{0, 2, 1}));
}

TEST(EraseLoopsTest, KeepsSimpleWalksIntact) {
  const Route route{{0, 2, 1}};
  EXPECT_EQ(EraseLoops(route).hops, route.hops);
  EXPECT_EQ(EraseLoops(Route{{5}}).hops, (std::vector<graph::NodeId>{5}));
  EXPECT_TRUE(EraseLoops(Route{}).Empty());
}

TEST(EraseLoopsTest, NestedLoopsCollapse) {
  // Walk 0 1 2 3 1 4 0 5: the 1..1 loop collapses first, then 0..0.
  const Route erased = EraseLoops(Route{{0, 1, 2, 3, 1, 4, 0, 5}});
  EXPECT_EQ(erased.hops, (std::vector<graph::NodeId>{0, 5}));
}

TEST(EraseLoopsTest, ResultValidatesWhenSourceWalkWasAdjacent) {
  const Graph g = MakeRelay();
  // Walk 0 -> 2 -> 1 -> 2 -> 1: adjacent at every hop but reuses links.
  const Route walk{{0, 2, 1, 2, 1}};
  EXPECT_NE(ValidateRoute(g, walk), "");
  const Route erased = EraseLoops(walk);
  EXPECT_EQ(ValidateRoute(g, erased), "");
  EXPECT_EQ(erased.Dst(), 1);
}

TEST(RouteLinksTest, InvalidRouteThrows) {
  const Graph g = MakeRelay();
  EXPECT_THROW(RouteLinks(g, Route{{2, 1}}), dcn::FailedPrecondition);
  EXPECT_THROW(RouteLinks(g, Route{}), dcn::FailedPrecondition);
}

// server0 and switch1 joined by three parallel links (edges 0-2; edge 1
// stored as (1, 0)), plus switch1 - server2 (edge 3).
Graph MakeBundle() {
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kSwitch);  // 1
  g.AddNode(NodeKind::kServer);  // 2
  g.AddEdge(0, 1);               // edge 0
  g.AddEdge(1, 0);               // edge 1
  g.AddEdge(0, 1);               // edge 2
  g.AddEdge(1, 2);               // edge 3
  return g;
}

// The message a resolver throws for `route`, after its prefix; "" if it
// accepts the route.
template <typename Resolve>
std::string Rejection(const std::string& prefix, Resolve&& resolve) {
  try {
    resolve();
  } catch (const dcn::FailedPrecondition& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    return what.substr(prefix.size());
  }
  return "";
}

TEST(RouteLinkRuleTest, EveryResolverTakesParallelCopiesInIdOrder) {
  const Graph g = MakeBundle();
  // Back and forth over the bundle: each crossing takes the lowest-id copy
  // the route has not crossed yet.
  const Route bounce{{0, 1, 0, 1, 2}};
  EXPECT_EQ(ValidateRoute(g, bounce), "");
  EXPECT_EQ(RouteLinks(g, bounce), (std::vector<graph::EdgeId>{0, 1, 2, 3}));
  // Copy 1 is stored as (1, 0), so crossing it from the switch is forward.
  const std::vector<std::uint64_t> directed{0, 2, 4, 6};
  EXPECT_EQ(RouteDirectedLinks(g, bounce), directed);
  graph::EpochMarks used;
  std::vector<std::uint64_t> into;
  RouteDirectedLinksInto(g.Csr(), bounce, used, into);
  EXPECT_EQ(into, directed);

  // With the first copy dead the next one carries the hop.
  graph::FailureSet failures{g};
  failures.KillEdge(0);
  EXPECT_EQ(ValidateRoute(g, Route{{0, 1, 2}}, &failures), "");
  EXPECT_EQ(RouteLinks(g, Route{{0, 1, 2}}, &failures),
            (std::vector<graph::EdgeId>{1, 3}));
  EXPECT_EQ(RouteLinks(g, Route{{0, 1, 0}}, &failures),
            (std::vector<graph::EdgeId>{1, 2}));
  EXPECT_EQ(ValidateRoute(g, bounce, &failures),
            "no usable link between hop 2 (0) and hop 3 (1)");
}

TEST(RouteLinkRuleTest, EveryResolverAcceptsAndRejectsTheSameRoutes) {
  const Graph g = MakeBundle();
  const std::vector<Route> routes{
      Route{{0, 1, 2}},          Route{{0, 1, 0, 1, 2}},
      Route{{2, 1, 0}},          Route{{0}},
      Route{},                   Route{{0, 7}},
      Route{{1, 2}},             Route{{0, 1}},
      Route{{0, 0, 1, 2}},       Route{{0, 2}},
      Route{{0, 1, 0, 1, 0, 1, 2}},  // a fourth crossing of three copies
      Route{{2, 1, 2}},              // one link crossed twice
  };
  graph::EpochMarks used;
  std::vector<std::uint64_t> into;
  for (const Route& route : routes) {
    SCOPED_TRACE(::testing::PrintToString(route.hops));
    const std::string problem = ValidateRoute(g, route);
    EXPECT_EQ(Rejection("RouteLinks on invalid route: ",
                        [&] { RouteLinks(g, route); }),
              problem);
    std::vector<std::uint64_t> directed;
    EXPECT_EQ(Rejection("RouteDirectedLinks on invalid route: ",
                        [&] { directed = RouteDirectedLinks(g, route); }),
              problem);
    EXPECT_EQ(Rejection("RouteDirectedLinksInto on invalid route: ",
                        [&] { RouteDirectedLinksInto(g.Csr(), route, used, into); }),
              problem);
    if (problem.empty()) {
      EXPECT_EQ(into, directed);
    }
  }
}

}  // namespace
}  // namespace dcn::routing
