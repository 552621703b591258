// Scale smoke tests: build the largest instances any bench touches (and a
// step beyond) and verify the structural invariants still hold. These guard
// against quadratic construction blowups and 32-bit id truncation — the
// kinds of bugs that only appear past toy sizes.
#include <gtest/gtest.h>

#include <chrono>

#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/implicit.h"
#include "graph/workspace.h"
#include "reference.h"
#include "routing/abccc_routing.h"
#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/bcube.h"
#include "topology/dcell.h"
#include "topology/fattree.h"
#include "topology/ficonn.h"
#include "topology/implicit.h"

namespace dcn {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

TEST(ScaleTest, SixteenThousandServerAbcccBuildsFast) {
  const auto start = Clock::now();
  const topo::AbcccParams params{8, 3, 2};  // m=4, 8^4 rows -> 16384 servers
  const topo::Abccc net{params};
  EXPECT_EQ(net.ServerCount(), 16384u);
  EXPECT_EQ(net.SwitchCount(), params.CrossbarTotal() + params.LevelSwitchTotal());
  EXPECT_LT(SecondsSince(start), 5.0) << "construction must stay near-linear";

  // Sampled routing still valid and bounded at this size.
  Rng rng{17};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 20; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route = routing::AbcccRoute(net, src, dst);
    ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "");
    ASSERT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
  }
}

TEST(ScaleTest, DeepNarrowAbcccStaysCorrect) {
  // k = 7 with n = 2: 8 digits, long thin rows (m = 8 at c = 2).
  const topo::AbcccParams params{2, 7, 2};
  const topo::Abccc net{params};
  EXPECT_EQ(net.ServerCount(), 8u * 256u);
  const std::vector<int> dist = graph::BfsDistances(net.Network(), 0);
  int ecc = 0;
  for (const graph::NodeId server : net.Servers()) {
    ASSERT_NE(dist[server], graph::kUnreachable);
    ecc = std::max(ecc, dist[server]);
  }
  EXPECT_EQ(ecc, CubeDiameter(params.k, params.c));  // 32
}

TEST(ScaleTest, LargeBcubeAndFatTree) {
  const topo::Bcube bcube{8, 3};  // 4096 servers, 4 ports each
  EXPECT_EQ(bcube.ServerCount(), 4096u);
  EXPECT_TRUE(graph::IsConnected(bcube.Network()));

  const topo::FatTree fattree{24};  // 3456 servers
  EXPECT_EQ(fattree.ServerCount(), 3456u);
  const routing::Route route{
      fattree.Route(fattree.Servers().front(), fattree.Servers().back())};
  EXPECT_EQ(routing::ValidateRoute(fattree.Network(), route), "");
  EXPECT_EQ(route.LinkCount(), 6u);
}

TEST(ScaleTest, DcellLevelTwoAtBaseSix) {
  const topo::Dcell net{6, 2};  // 1806 servers
  EXPECT_EQ(net.ServerCount(), 1806u);
  Rng rng{19};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 20; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "");
    ASSERT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
  }
}

TEST(ScaleTest, FiConnLevelThree) {
  const topo::FiConn net{4, 3};  // t_3 = 48 * 7 = 336
  EXPECT_EQ(net.ServerCount(), 336u);
  EXPECT_TRUE(graph::IsConnected(net.Network()));
  Rng rng{23};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 20; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    ASSERT_EQ(routing::ValidateRoute(net.Network(), route), "");
    ASSERT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
  }
}

TEST(ScaleTest, SizeValidationRejectsOverflow) {
  // Parameter combinations whose node counts overflow must throw, not wrap.
  topo::AbcccParams huge{16, 15, 2};
  EXPECT_THROW(huge.Validate(), InvalidArgument);
  topo::BcubeParams big_bcube{256, 8};
  EXPECT_THROW(big_bcube.Validate(), InvalidArgument);
}

TEST(ScaleTest, PetascaleParamsValidateWithoutConstruction) {
  // 3.2e9 servers: every derived count fits 64 bits, so validation must
  // succeed — and allocate nothing — even though no graph could ever be
  // built. This is what lets cost models sweep petascale shapes.
  topo::AbcccParams petascale{32, 5, 3};
  EXPECT_NO_THROW(petascale.Validate());
  EXPECT_EQ(petascale.ServerTotal(), 3221225472u);
}

TEST(ScaleTest, LinkCountOverflowThrowsFromValidate) {
  // Server counts fit 64 bits but the LINK total wraps: Validate must catch
  // the derived-count overflow, not just the node counts.
  topo::AbcccParams wide{8, 19, 21};
  EXPECT_THROW(wide.Validate(), InvalidArgument);
  topo::BcubeParams wide_bcube{8, 19};
  EXPECT_THROW(wide_bcube.Validate(), InvalidArgument);
}

TEST(ScaleTest, MillionServerImplicitBfsInFrontierMemory) {
  // 3.1M servers, 4.5M nodes — far beyond anything the materialized builders
  // touch in CI — traversed with only the workspace allocation. The CI scale
  // smoke (bench_scale --smoke) runs the same instance under a hard ulimit.
  const topo::ImplicitCube cube = topo::ImplicitCube::MakeAbccc(16, 4, 3);
  EXPECT_EQ(cube.ServerCount(), 3145728u);
  graph::TraversalScope ws;
  const std::size_t reached = graph::BfsDistances(cube, 0, *ws);
  EXPECT_EQ(reached, cube.NodeCount());
  int ecc = 0;
  for (std::size_t i = 0; i < cube.ServerCount(); ++i) {
    ecc = std::max(ecc, ws->Dist(cube.ServerIdAt(i)));
  }
  // Every server's eccentricity is the diameter: 16 links, where the route
  // bound allows 22.
  EXPECT_EQ(ecc, CubeDiameter(4, 3));
}

}  // namespace
}  // namespace dcn
