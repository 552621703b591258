// Differential suite: traversals over the implicit cube (arithmetic
// neighbor enumeration, topology/implicit.h) against the same cube's
// materialized CSR arrays, family by family. The contract under test is BYTE
// IDENTITY — same neighbor enumeration order, same traversal results, same
// sampled statistics from the same seed, at any thread count — because
// everything the scale benches report at million-server sizes is validated
// only by these small-size equalities. The structure itself is checked
// against PAPER.md's link rule by tests/test_cube_oracle.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "graph/implicit.h"
#include "graph/msbfs.h"
#include "graph/workspace.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/bcube.h"
#include "topology/implicit.h"

namespace dcn {
namespace {

static_assert(graph::TraversalGraph<topo::ImplicitCube>);
static_assert(graph::TraversalGraph<graph::CsrView>);
static_assert(graph::HasAdjacencySpans<graph::CsrView>);
static_assert(!graph::HasAdjacencySpans<topo::ImplicitCube>);

struct Case {
  std::unique_ptr<topo::Topology> net;
  topo::ImplicitCube cube;
};

// One case per structural regime: multi-role with crossbars (generic, deep,
// partial last role), the m == 1 degenerations (ABCCC-named and BCube-named),
// the k == 0 single-level edge, the published BCCC/BCube families, and mixed
// radices (GeneralABCCC, where symmetry reduction holds digit by digit
// modulo each radix).
std::vector<Case> AllCases() {
  std::vector<Case> cases;
  const auto abccc = [&](int n, int k, int c) {
    cases.push_back(Case{std::make_unique<topo::Abccc>(topo::AbcccParams{n, k, c}),
                         topo::ImplicitCube::MakeAbccc(n, k, c)});
  };
  abccc(3, 2, 2);
  abccc(4, 3, 2);
  abccc(3, 3, 3);
  abccc(2, 4, 3);
  abccc(4, 1, 3);  // m == 1: no crossbars under the ABCCC name
  abccc(3, 0, 2);  // k == 0: one level, one switch per row
  cases.push_back(
      Case{std::make_unique<topo::Bccc>(3, 2), topo::ImplicitCube::MakeBccc(3, 2)});
  cases.push_back(
      Case{std::make_unique<topo::Bcube>(4, 2), topo::ImplicitCube::MakeBcube(4, 2)});
  cases.push_back(
      Case{std::make_unique<topo::Bcube>(2, 3), topo::ImplicitCube::MakeBcube(2, 3)});
  const auto general = [&](std::vector<int> radices, int c) {
    const topo::GeneralAbcccParams params{std::move(radices), c};
    cases.push_back(Case{std::make_unique<topo::Abccc>(params), topo::ImplicitCube{params}});
  };
  general({4, 3, 2}, 2);
  general({2, 3, 4, 2}, 3);
  general({3, 5}, 3);  // m == 1: mixed-radix BCube shape
  general({5}, 2);     // k == 0
  return cases;
}

std::vector<graph::NodeId> Neighbors(const topo::ImplicitCube& cube,
                                     graph::NodeId node) {
  std::vector<graph::NodeId> out;
  cube.ForEachNeighbor(node, [&](graph::NodeId to) { out.push_back(to); });
  return out;
}

void ExpectSweepEq(const graph::AllPairsSweepStats& a,
                   const graph::AllPairsSweepStats& b) {
  EXPECT_EQ(a.distance_total, b.distance_total);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.connected, b.connected);
  EXPECT_EQ(a.pairs_at_distance, b.pairs_at_distance);
}

TEST(ImplicitCubeTest, StructureAndNeighborOrderMatchMaterialized) {
  for (const Case& c : AllCases()) {
    SCOPED_TRACE(c.cube.Describe());
    const graph::Graph& g = c.net->Network();
    const graph::CsrView& csr = g.Csr();

    ASSERT_EQ(c.cube.NodeCount(), g.NodeCount());
    EXPECT_EQ(c.cube.ServerCount(), g.ServerCount());
    EXPECT_EQ(c.cube.SwitchCount(), g.SwitchCount());
    EXPECT_EQ(c.cube.LinkCount(), g.EdgeCount());
    EXPECT_EQ(c.cube.DegreeBound(), csr.DegreeBound());

    std::uint64_t nic_ports = 0;
    std::uint64_t switch_ports = 0;
    for (graph::NodeId node = 0;
         static_cast<std::size_t>(node) < g.NodeCount(); ++node) {
      EXPECT_EQ(c.cube.IsServer(node), g.IsServer(node));
      ASSERT_EQ(c.cube.Degree(node), g.Degree(node));
      (g.IsServer(node) ? nic_ports : switch_ports) += g.Degree(node);

      // Byte identity hinges on enumeration ORDER, not just the set: the
      // implicit walk must replay the edge-id order the graph was built in.
      const auto expected = csr.AdjacentNodes(node);
      const std::vector<graph::NodeId> actual = Neighbors(c.cube, node);
      ASSERT_EQ(actual.size(), expected.size());
      EXPECT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin()));
    }
    EXPECT_EQ(c.cube.NicPortTotal(), nic_ports);
    EXPECT_EQ(c.cube.SwitchPortTotal(), switch_ports);

    for (std::size_t i = 0; i < c.cube.ServerCount(); ++i) {
      ASSERT_EQ(c.cube.ServerIdAt(i), csr.ServerIdAt(i));
    }
  }
}

TEST(ImplicitCubeTest, TraversalsMatchMaterialized) {
  for (const Case& c : AllCases()) {
    SCOPED_TRACE(c.cube.Describe());
    const graph::CsrView& csr = c.net->Network().Csr();

    // Single-source distances from a few spread-out roots.
    graph::TraversalScope ws_csr;
    graph::TraversalScope ws_cube;
    const std::vector<graph::NodeId> roots = {
        0, static_cast<graph::NodeId>(c.cube.ServerCount() / 2),
        static_cast<graph::NodeId>(c.cube.NodeCount() - 1)};
    for (const graph::NodeId root : roots) {
      graph::BfsDistances(csr, root, *ws_csr);
      graph::BfsDistances(c.cube, root, *ws_cube);
      for (graph::NodeId node = 0;
           static_cast<std::size_t>(node) < c.cube.NodeCount(); ++node) {
        ASSERT_EQ(ws_cube->Dist(node), ws_csr->Dist(node));
      }
    }

    // Bit-parallel kernels: distances, eccentricities, and the full sweep,
    // at several thread counts — all bit-identical to the materialized run.
    std::vector<graph::NodeId> sources;
    for (std::size_t i = 0; i < c.cube.ServerCount(); i += 3) {
      sources.push_back(c.cube.ServerIdAt(i));
    }
    const std::vector<int> want_dist = graph::MultiSourceDistances(csr, sources);
    const std::vector<int> want_ecc = graph::ServerEccentricities(csr, sources);
    const graph::AllPairsSweepStats want_sweep =
        graph::AllPairsDistanceSweep(csr);
    for (const int threads : {1, 3, 7}) {
      SetThreadCount(threads);
      EXPECT_EQ(graph::MultiSourceDistances(c.cube, sources), want_dist);
      EXPECT_EQ(graph::ServerEccentricities(c.cube, sources), want_ecc);
      ExpectSweepEq(graph::AllPairsDistanceSweep(c.cube), want_sweep);
    }
    SetThreadCount(0);
  }
}

TEST(ImplicitCubeTest, ExactStatsMatchAndSymmetryReductionIsExact) {
  for (const Case& c : AllCases()) {
    SCOPED_TRACE(c.cube.Describe());
    const metrics::ExactPathStats full = metrics::ExactServerPathStats(*c.net);
    const metrics::ExactPathStats implicit_full =
        metrics::ExactServerPathStats(c.cube);
    const metrics::ExactPathStats reduced =
        metrics::SymmetryReducedPathStats(c.cube);

    for (const metrics::ExactPathStats* got : {&implicit_full, &reduced}) {
      EXPECT_EQ(got->diameter, full.diameter);
      EXPECT_EQ(got->radius, full.radius);
      EXPECT_EQ(got->pairs, full.pairs);
      EXPECT_EQ(got->connected, full.connected);
      // Exact double equality: the reduced sweep scales integer totals, so
      // even the division reproduces the full sweep's bits.
      EXPECT_EQ(got->average, full.average);
      EXPECT_EQ(got->pairs_at_distance, full.pairs_at_distance);
    }
  }
}

TEST(ImplicitCubeTest, SampledStatsMatchMaterializedAtAnyThreadCount) {
  for (const Case& c : AllCases()) {
    SCOPED_TRACE(c.cube.Describe());
    Rng want_rng{2015};
    const metrics::SampledPathStats want =
        metrics::SamplePathStats(*c.net, 6, 9, want_rng);
    for (const int threads : {1, 3, 7}) {
      SetThreadCount(threads);
      Rng rng{2015};
      const metrics::SampledPathStats got =
          metrics::SamplePathStats(c.cube, 6, 9, rng);
      EXPECT_EQ(got.shortest.Buckets(), want.shortest.Buckets());
      EXPECT_EQ(got.routed.Buckets(), want.routed.Buckets());
      EXPECT_EQ(got.mean_stretch, want.mean_stretch);
      EXPECT_EQ(got.diameter_lower_bound, want.diameter_lower_bound);
    }
    SetThreadCount(0);
  }
}

TEST(ImplicitCubeTest, DisconnectionFractionMatchesUnderNodeKills) {
  // Kill one level switch and one crossbar; sampled pair disconnection must
  // agree between representations (same seed, node-id-identical kills).
  const topo::Abccc net{topo::AbcccParams{4, 3, 2}};
  const topo::ImplicitCube cube = topo::ImplicitCube::MakeAbccc(4, 3, 2);

  graph::FailureSet mat{net.Network()};
  graph::FailureSet imp{cube.NodeCount(), cube.LinkCount()};
  const graph::NodeId dead_switch =
      static_cast<graph::NodeId>(cube.NodeCount() - 1);
  const graph::NodeId dead_crossbar = cube.CrossbarAt(0);
  for (const graph::NodeId node : {dead_switch, dead_crossbar}) {
    mat.KillNode(node);
    imp.KillNode(node);
  }

  Rng mat_rng{99};
  const double want = metrics::PairDisconnectionFraction(net, mat, 96, mat_rng);
  for (const int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    Rng imp_rng{99};
    EXPECT_EQ(metrics::PairDisconnectionFraction(cube, imp, 96, imp_rng), want);
  }
  SetThreadCount(0);
}

TEST(ImplicitCubeTest, EdgeFailuresAreRejectedOnImplicitGraphs) {
  const topo::ImplicitCube cube = topo::ImplicitCube::MakeAbccc(3, 2, 2);
  graph::FailureSet failures{cube.NodeCount(), cube.LinkCount()};
  failures.KillEdge(0);
  graph::TraversalScope ws;
  EXPECT_THROW(graph::BfsDistances(cube, 0, *ws, &failures), InvalidArgument);
}

TEST(ImplicitCubeTest, NodeIdOverflowThrowsAtConstruction) {
  // 5.4e9 servers: fine for 64-bit validation, too big for 32-bit node ids.
  topo::AbcccParams params{64, 4, 2};
  EXPECT_NO_THROW(params.Validate());
  EXPECT_THROW(topo::ImplicitCube::MakeAbccc(64, 4, 2), InvalidArgument);
  // The materialized cube inherits the bound before allocating anything.
  EXPECT_THROW(topo::Abccc(topo::AbcccParams{64, 4, 2}), InvalidArgument);
}

TEST(ImplicitCubeTest, FamilyConstraintsEnforced) {
  EXPECT_THROW(topo::ImplicitCube(topo::AbcccParams{3, 2, 3}.General(),
                                  topo::CubeFamily::kBccc),
               InvalidArgument);
  EXPECT_THROW(topo::ImplicitCube(topo::AbcccParams{3, 2, 2}.General(),
                                  topo::CubeFamily::kBcube),
               InvalidArgument);
  EXPECT_THROW(topo::ImplicitCube(topo::GeneralAbcccParams{{3, 4}, 2},
                                  topo::CubeFamily::kAbccc),
               InvalidArgument);
}

}  // namespace
}  // namespace dcn
