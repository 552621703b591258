// Independent oracle for the cube family (ABCCC, BCCC, BCube, GeneralABCCC).
//
// The materialized graph comes from the digit algebra (topology/implicit.h);
// this file shares none of its code. It re-derives PAPER.md §1 — generalized
// to per-level radices r_0..r_k — with test-local arithmetic and checks the
// built graph three ways:
//   * node, switch and link counts and every node's degree against the
//     closed forms;
//   * every edge against the link rule: decode (u, v) from the documented
//     node-id layout and confirm the server is attached to its own crossbar
//     or to the level-l switch of its digits minus a_l, as that level's
//     agent. No edge repeats and the edge count equals the closed form, so
//     every edge the rule calls for is present;
//   * FNV-1a digests of the (u, v) sequence in edge-id order for uniform
//     instances. Directed-link ids (2*edge + direction) key the packet
//     simulator's tie-breaks, shards and hot-link reports, so edge ids are
//     pinned; the digests were recorded from the builders the algebra
//     replaced.
// It also checks the distance sweeps against a closed form of every
// server-to-server distance (DistanceOracle below): the exact all-pairs sweep
// over the materialized graph and the symmetry-reduced sweep over the
// implicit one, at several thread counts, up to an instance whose BFS levels
// span many of the kernel's fixed chunks; and the grouped digit-fixing
// route's length against the same closed form, pair by pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "metrics/path_metrics.h"
#include "routing/abccc_routing.h"
#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/bcube.h"
#include "topology/factory.h"
#include "topology/implicit.h"

namespace dcn {
namespace {

using graph::NodeId;
using std::uint64_t;

// PAPER.md §1 with digit l ranging over [0, r_l).
struct PaperShape {
  std::vector<int> radices;  // little-endian, r_0 first
  int c = 2;

  int Levels() const { return static_cast<int>(radices.size()); }
  int M() const { return (Levels() + c - 2) / (c - 1); }  // ceil((k+1)/(c-1))
  uint64_t Rows() const {
    uint64_t rows = 1;
    for (int r : radices) rows *= static_cast<uint64_t>(r);
    return rows;
  }
  uint64_t Servers() const { return static_cast<uint64_t>(M()) * Rows(); }
  uint64_t Crossbars() const { return M() >= 2 ? Rows() : 0; }
  uint64_t LevelSwitches(int l) const { return Rows() / static_cast<uint64_t>(radices[l]); }
  uint64_t Switches() const {
    uint64_t total = Crossbars();
    for (int l = 0; l < Levels(); ++l) total += LevelSwitches(l);
    return total;
  }
  // One link per (row, level) through that level's agent, plus one crossbar
  // link per server.
  uint64_t Links() const {
    return static_cast<uint64_t>(Levels()) * Rows() + (M() >= 2 ? Servers() : 0);
  }
  // Role j serves levels [j(c-1), j(c-1)+c-2] ∩ [0, k].
  bool Serves(int role, int level) const { return level / (c - 1) == role; }
  int ServerDegree(int role) const {
    int degree = M() >= 2 ? 1 : 0;
    for (int l = 0; l < Levels(); ++l) degree += Serves(role, l) ? 1 : 0;
    return degree;
  }

  std::vector<int> DigitsOfRow(uint64_t row) const {
    std::vector<int> digits;
    for (int r : radices) {
      digits.push_back(static_cast<int>(row % static_cast<uint64_t>(r)));
      row /= static_cast<uint64_t>(r);
    }
    return digits;
  }
  // Level-l switch index: the digits other than a_l, packed little-endian.
  uint64_t SwitchIndex(const std::vector<int>& digits, int level) const {
    uint64_t index = 0;
    for (int l = Levels() - 1; l >= 0; --l) {
      if (l == level) continue;
      index = index * static_cast<uint64_t>(radices[l]) + static_cast<uint64_t>(digits[l]);
    }
    return index;
  }
};

// Node-id layout (topology/implicit.h): servers row*m + role, then one
// crossbar per row (m >= 2), then level switches level by level.
struct SwitchId {
  bool crossbar = false;
  int level = -1;
  uint64_t index = 0;
};

SwitchId DecodeSwitch(const PaperShape& shape, uint64_t id) {
  id -= shape.Servers();
  if (id < shape.Crossbars()) return SwitchId{true, -1, id};
  id -= shape.Crossbars();
  for (int l = 0; l < shape.Levels(); ++l) {
    if (id < shape.LevelSwitches(l)) return SwitchId{false, l, id};
    id -= shape.LevelSwitches(l);
  }
  ADD_FAILURE() << "switch id beyond the level blocks";
  return {};
}

void ExpectMatchesPaper(const topo::Topology& net, const PaperShape& shape) {
  SCOPED_TRACE(net.Describe());
  const graph::Graph& g = net.Network();
  ASSERT_EQ(g.ServerCount(), shape.Servers());
  ASSERT_EQ(g.SwitchCount(), shape.Switches());
  ASSERT_EQ(g.EdgeCount(), shape.Links());

  const auto m = static_cast<uint64_t>(shape.M());
  for (uint64_t node = 0; node < g.NodeCount(); ++node) {
    const auto id = static_cast<NodeId>(node);
    if (node < shape.Servers()) {
      ASSERT_TRUE(g.IsServer(id)) << node;
      const int role = static_cast<int>(node % m);
      ASSERT_EQ(g.Degree(id), static_cast<std::size_t>(shape.ServerDegree(role))) << node;
      continue;
    }
    ASSERT_TRUE(g.IsSwitch(id)) << node;
    const SwitchId sw = DecodeSwitch(shape, node);
    const uint64_t want = sw.crossbar ? m : static_cast<uint64_t>(shape.radices[sw.level]);
    ASSERT_EQ(g.Degree(id), want) << node;
  }

  std::set<std::pair<NodeId, NodeId>> seen;
  for (graph::EdgeId e = 0; static_cast<std::size_t>(e) < g.EdgeCount(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    ASSERT_TRUE(seen.insert({u, v}).second) << "repeated link, edge " << e;
    ASSERT_LT(static_cast<uint64_t>(u), shape.Servers()) << "edge " << e;
    ASSERT_GE(static_cast<uint64_t>(v), shape.Servers()) << "edge " << e;
    const uint64_t row = static_cast<uint64_t>(u) / m;
    const int role = static_cast<int>(static_cast<uint64_t>(u) % m);
    const SwitchId sw = DecodeSwitch(shape, static_cast<uint64_t>(v));
    if (sw.crossbar) {
      ASSERT_EQ(sw.index, row) << "server on a foreign crossbar, edge " << e;
      continue;
    }
    ASSERT_TRUE(shape.Serves(role, sw.level))
        << "non-agent on level " << sw.level << ", edge " << e;
    ASSERT_EQ(sw.index, shape.SwitchIndex(shape.DigitsOfRow(row), sw.level))
        << "server on a foreign level switch, edge " << e;
  }
}

uint64_t EdgeDigest(const graph::Graph& g) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  const auto mix = [&](NodeId value) {
    const auto bits = static_cast<std::uint32_t>(value);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (graph::EdgeId e = 0; static_cast<std::size_t>(e) < g.EdgeCount(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    mix(u);
    mix(v);
  }
  return hash;
}

PaperShape Uniform(int n, int k, int c) {
  return PaperShape{std::vector<int>(static_cast<std::size_t>(k) + 1, n), c};
}

struct Pinned {
  std::unique_ptr<topo::Topology> net;
  PaperShape shape;
  uint64_t digest;
};

// Uniform instances across the regimes: multi-role with crossbars, partial
// last role, m == 1 under the ABCCC name, k == 0, BCCC, and BCube.
std::vector<Pinned> PinnedInstances() {
  std::vector<Pinned> out;
  const auto abccc = [&](int n, int k, int c, uint64_t digest) {
    out.push_back({std::make_unique<topo::Abccc>(topo::AbcccParams{n, k, c}),
                   Uniform(n, k, c), digest});
  };
  abccc(3, 2, 2, 0x52e3d8ddfcb3f802ull);
  abccc(4, 3, 2, 0xd8a581b038bb3685ull);
  abccc(3, 3, 3, 0x2616a111e43aa54full);
  abccc(2, 4, 3, 0x4473c5e6ed714625ull);
  abccc(4, 2, 3, 0x2428a46b8d0fdb25ull);
  abccc(8, 3, 3, 0x9c43dad67bdcf4a5ull);
  abccc(4, 1, 3, 0xe6a1c21278c072a5ull);  // m == 1
  abccc(5, 2, 4, 0x8904165b864792e5ull);  // m == 1
  abccc(3, 0, 2, 0x712d68a9eac6e1b5ull);  // k == 0
  abccc(2, 0, 2, 0x13b707e05f411284ull);  // k == 0
  const auto bccc = [&](int n, int k, uint64_t digest) {
    out.push_back({std::make_unique<topo::Bccc>(n, k), Uniform(n, k, 2), digest});
  };
  bccc(3, 2, 0x52e3d8ddfcb3f802ull);
  bccc(4, 4, 0xfead15874edc1a35ull);
  const auto bcube = [&](int n, int k, uint64_t digest) {
    out.push_back({std::make_unique<topo::Bcube>(n, k), Uniform(n, k, k + 2), digest});
  };
  bcube(4, 2, 0x15b655b17a520925ull);
  bcube(2, 3, 0x0a9064ed23cd34a5ull);
  bcube(3, 0, 0x712d68a9eac6e1b5ull);
  bcube(8, 3, 0xc87d3c354caaf2a5ull);
  return out;
}

TEST(CubeOracleTest, UniformFamiliesFollowThePaper) {
  for (const Pinned& p : PinnedInstances()) ExpectMatchesPaper(*p.net, p.shape);
}

TEST(CubeOracleTest, UniformEdgeIdsArePinned) {
  for (const Pinned& p : PinnedInstances()) {
    EXPECT_EQ(EdgeDigest(p.net->Network()), p.digest) << p.net->Describe();
  }
}

TEST(CubeOracleTest, MixedRadicesFollowThePaper) {
  for (const PaperShape& shape :
       {PaperShape{{4, 3, 2}, 2}, PaperShape{{2, 3, 4, 2}, 3}, PaperShape{{4, 4, 3}, 2},
        PaperShape{{3, 5}, 3} /* m == 1 */, PaperShape{{5}, 2} /* k == 0 */,
        PaperShape{{8, 8, 8, 4}, 3}, PaperShape{{2, 5, 3}, 4}}) {
    ExpectMatchesPaper(topo::Abccc{topo::GeneralAbcccParams{shape.radices, shape.c}}, shape);
  }
}

TEST(CubeOracleTest, PaperClosedFormsForUniformShapes) {
  // PAPER.md §1 verbatim: m·n^(k+1) servers, n^(k+1) crossbars when m >= 2,
  // (k+1)·n^k level switches.
  const PaperShape shape = Uniform(4, 3, 3);  // m = 2
  EXPECT_EQ(shape.Servers(), 2u * 256u);
  EXPECT_EQ(shape.Crossbars(), 256u);
  EXPECT_EQ(shape.Switches() - shape.Crossbars(), 4u * 64u);
  const topo::Abccc net{topo::AbcccParams{4, 3, 3}};
  EXPECT_EQ(net.ServerCount(), 512u);
  EXPECT_EQ(net.SwitchCount(), 256u + 256u);
}

// Closed-form distance between servers <a; j> and <b; j'>, in links:
//
//   d = 2·H + 2·x
//
// H is the number of digits in which a and b differ; R is the set of roles
// that agent at least one of those levels; x is the number of crossbar hops
// needed to visit every role in R, starting at role j and ending at role j':
//   j != j':                 x = |R ∪ {j, j'}| - 1;
//   j == j' and R ⊄ {j}:     x = |R \ {j}| + 1;
//   otherwise (or m == 1):   x = 0.
// Level l can change only at its agent role, and roles change only through
// the crossbar; each level hop and each crossbar hop is two links.
//
// By digit translation every row sees the same distances, so the ordered-pair
// histogram is `rows` times that of the sources <0; j>. Those are counted by
// role block: h_r differing digits inside role r's block can be chosen in
// e_{h_r}(r_l - 1 : l in block r) ways (an elementary symmetric polynomial),
// so one pass over the vectors (h_0, ..., h_{m-1}) covers every destination.
class DistanceOracle {
 public:
  explicit DistanceOracle(const PaperShape& shape) : shape_(shape) {
    const int m = shape.M();
    // ways_[r][h]: digit strings differing from a fixed one in exactly h
    // levels of role r's block.
    ways_.assign(static_cast<std::size_t>(m), std::vector<uint64_t>{1});
    for (int l = 0; l < shape.Levels(); ++l) {
      const auto level = static_cast<std::size_t>(l);
      const auto other_digits = static_cast<uint64_t>(shape.radices[level] - 1);
      std::vector<uint64_t>& ways = ways_[static_cast<std::size_t>(l / (shape.c - 1))];
      ways.push_back(0);
      for (std::size_t h = ways.size() - 1; h > 0; --h) ways[h] += ways[h - 1] * other_digits;
    }
  }

  static int CrossbarHops(std::uint32_t roles, int j, int jp) {
    const std::uint32_t own = 1u << j;
    if (j != jp) return std::popcount(roles | own | (1u << jp)) - 1;
    if ((roles & ~own) != 0) return std::popcount(roles & ~own) + 1;
    return 0;
  }

  // pairs_at_distance over all ordered server pairs, plus the extremes.
  struct Result {
    std::vector<uint64_t> pairs_at_distance;
    int diameter = 0;
    int radius = 0;
  };

  Result Sweep() const {
    const int m = shape_.M();
    Result out;
    std::vector<int> ecc(static_cast<std::size_t>(m), 0);
    std::vector<std::size_t> h(static_cast<std::size_t>(m), 0);  // odometer
    for (;;) {
      uint64_t count = 1;
      int differing = 0;
      std::uint32_t roles = 0;
      for (int r = 0; r < m; ++r) {
        const std::size_t hr = h[static_cast<std::size_t>(r)];
        count *= ways_[static_cast<std::size_t>(r)][hr];
        differing += static_cast<int>(hr);
        if (hr > 0) roles |= 1u << r;
      }
      for (int j = 0; j < m; ++j) {
        for (int jp = 0; jp < m; ++jp) {
          if (differing == 0 && j == jp) continue;  // the source itself
          const int d = 2 * differing + 2 * CrossbarHops(roles, j, jp);
          const auto bin = static_cast<std::size_t>(d);
          if (out.pairs_at_distance.size() <= bin) out.pairs_at_distance.resize(bin + 1, 0);
          out.pairs_at_distance[bin] += count * shape_.Rows();
          int& eccentricity = ecc[static_cast<std::size_t>(j)];
          eccentricity = std::max(eccentricity, d);
        }
      }
      std::size_t r = 0;
      while (r < h.size() && h[r] + 1 == ways_[r].size()) h[r++] = 0;
      if (r == h.size()) break;
      ++h[r];
    }
    out.diameter = *std::max_element(ecc.begin(), ecc.end());
    out.radius = *std::min_element(ecc.begin(), ecc.end());
    return out;
  }

 private:
  PaperShape shape_;
  std::vector<std::vector<uint64_t>> ways_;
};

// d for one ordered pair of server ids, read off the node-id layout
// (row·m + role) with the formula above.
int PairDistance(const PaperShape& shape, uint64_t u, uint64_t v) {
  const auto m = static_cast<uint64_t>(shape.M());
  const std::vector<int> a = shape.DigitsOfRow(u / m);
  const std::vector<int> b = shape.DigitsOfRow(v / m);
  int differing = 0;
  std::uint32_t roles = 0;
  for (int l = 0; l < shape.Levels(); ++l) {
    if (a[static_cast<std::size_t>(l)] == b[static_cast<std::size_t>(l)]) continue;
    ++differing;
    roles |= 1u << (l / (shape.c - 1));
  }
  return 2 * differing + 2 * DistanceOracle::CrossbarHops(roles, static_cast<int>(u % m),
                                                          static_cast<int>(v % m));
}

void ExpectMatchesOracle(const metrics::ExactPathStats& got, const PaperShape& shape) {
  const DistanceOracle::Result want = DistanceOracle{shape}.Sweep();
  const uint64_t servers = shape.Servers();
  uint64_t histogram_pairs = 0;
  uint64_t total = 0;
  for (std::size_t d = 0; d < want.pairs_at_distance.size(); ++d) {
    histogram_pairs += want.pairs_at_distance[d];
    total += d * want.pairs_at_distance[d];
  }
  ASSERT_EQ(histogram_pairs, servers * (servers - 1));
  EXPECT_TRUE(got.connected);
  EXPECT_EQ(got.pairs, servers * (servers - 1));
  EXPECT_EQ(got.pairs_at_distance, want.pairs_at_distance);
  EXPECT_EQ(got.diameter, want.diameter);
  EXPECT_EQ(got.radius, want.radius);
  EXPECT_EQ(got.average, static_cast<double>(total) / static_cast<double>(got.pairs));
}

// Shapes for the distance checks: multi-role with full and partial role
// blocks, radices mixed inside a block, m == 1 and k == 0.
std::vector<PaperShape> MixedDistanceShapes() {
  return {PaperShape{{4, 3, 2}, 2},    PaperShape{{3, 4, 2}, 3},
          PaperShape{{2, 3, 4, 2, 3}, 3}, PaperShape{{5, 2, 3, 2}, 3},
          PaperShape{{2, 3, 2, 4}, 4}, PaperShape{{8, 8, 8, 4}, 3},
          PaperShape{{3, 5}, 3} /* m == 1 */, PaperShape{{5}, 2} /* k == 0 */};
}

TEST(CubeOracleTest, OracleDiameterIsTwiceLevelsPlusRoles) {
  // Every digit differs and every role must be crossed, ending where it
  // started: 2(k+1) + 2m for m >= 2, 2(k+1) when the crossbar is absent.
  for (const PaperShape& shape :
       {Uniform(4, 3, 2), Uniform(3, 3, 3), Uniform(4, 2, 3), Uniform(4, 1, 3),
        PaperShape{{2, 3, 4, 2, 3}, 3}, PaperShape{{3, 5}, 3}}) {
    const int m = shape.M();
    const int want = 2 * shape.Levels() + (m >= 2 ? 2 * m : 0);
    EXPECT_EQ(DistanceOracle{shape}.Sweep().diameter, want);
  }
}

TEST(CubeOracleTest, GroupedRouteLengthIsTheDistanceForEveryPair) {
  // The grouped digit-fixing route is a shortest path between every ordered
  // server pair — F2's sampled stretch of 1.000, as a check.
  std::vector<std::pair<std::unique_ptr<topo::Abccc>, PaperShape>> nets;
  for (const auto& [n, k, c] : {std::tuple{3, 2, 2}, std::tuple{3, 3, 3}, std::tuple{2, 4, 3},
                                std::tuple{2, 5, 3}, std::tuple{2, 5, 4}, std::tuple{3, 2, 4}}) {
    nets.emplace_back(std::make_unique<topo::Abccc>(topo::AbcccParams{n, k, c}),
                      Uniform(n, k, c));
  }
  nets.emplace_back(std::make_unique<topo::Bcube>(3, 2), Uniform(3, 2, 4));
  nets.emplace_back(std::make_unique<topo::Bccc>(3, 2), Uniform(3, 2, 2));
  // Spec radices 4.2.3 (big-endian), c = 2.
  nets.emplace_back(std::make_unique<topo::Abccc>(topo::GeneralAbcccParams{{3, 2, 4}, 2}),
                    PaperShape{{3, 2, 4}, 2});
  for (const auto& [net, shape] : nets) {
    SCOPED_TRACE(net->Describe());
    ASSERT_EQ(net->ServerCount(), shape.Servers());
    for (const NodeId u : net->Servers()) {
      for (const NodeId v : net->Servers()) {
        if (u == v) continue;
        const routing::Route route =
            routing::AbcccRoute(*net, u, v, routing::PermutationStrategy::kGroupedFromSource);
        ASSERT_EQ(static_cast<int>(route.LinkCount()),
                  PairDistance(shape, static_cast<uint64_t>(u), static_cast<uint64_t>(v)))
            << u << " -> " << v;
      }
    }
  }
}

TEST(CubeOracleTest, MaterializedSweepMatchesDistanceOracle) {
  std::vector<std::pair<std::unique_ptr<topo::Topology>, PaperShape>> nets;
  for (Pinned& p : PinnedInstances()) nets.emplace_back(std::move(p.net), p.shape);
  for (const PaperShape& shape : MixedDistanceShapes()) {
    nets.emplace_back(
        std::make_unique<topo::Abccc>(topo::GeneralAbcccParams{shape.radices, shape.c}), shape);
  }
  // Spec radices are big-endian: r_2 = 3, r_1 = 3, r_0 = 4.
  nets.emplace_back(topo::MakeTopology("gabccc:radices=3.3.4,c=3"), PaperShape{{4, 3, 3}, 3});
  for (const int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    for (const auto& [net, shape] : nets) {
      SCOPED_TRACE(net->Describe() + " threads=" + std::to_string(threads));
      ExpectMatchesOracle(metrics::ExactServerPathStats(*net), shape);
    }
  }
  SetThreadCount(0);
}

TEST(CubeOracleTest, SymmetryReducedSweepMatchesDistanceOracle) {
  std::vector<std::pair<topo::ImplicitCube, PaperShape>> cubes;
  for (const PaperShape& shape :
       {Uniform(4, 3, 2), Uniform(3, 3, 3), Uniform(4, 2, 3), Uniform(4, 1, 3)}) {
    cubes.emplace_back(topo::ImplicitCube{topo::GeneralAbcccParams{shape.radices, shape.c}},
                       shape);
  }
  cubes.emplace_back(topo::ImplicitCube::MakeBccc(4, 3), Uniform(4, 3, 2));
  cubes.emplace_back(topo::ImplicitCube::MakeBcube(4, 3), Uniform(4, 3, 5));
  for (const PaperShape& shape : MixedDistanceShapes()) {
    cubes.emplace_back(topo::ImplicitCube{topo::GeneralAbcccParams{shape.radices, shape.c}},
                       shape);
  }
  // 786,432 servers and 1,245,184 nodes: the sweep's wide levels span dozens
  // of the kernel's fixed chunks, so they run on the pool.
  cubes.emplace_back(topo::ImplicitCube::MakeAbccc(8, 5, 3), Uniform(8, 5, 3));
  for (const int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    for (const auto& [cube, shape] : cubes) {
      SCOPED_TRACE(cube.Describe() + " threads=" + std::to_string(threads));
      ASSERT_EQ(cube.ServerCount(), shape.Servers());
      ExpectMatchesOracle(metrics::SymmetryReducedPathStats(cube), shape);
    }
  }
  SetThreadCount(0);
}

TEST(CubeOracleTest, DistanceOracleReproducesScaleTable) {
  // S1 (results/bench_scale.txt) at 1-5 million servers: diameter and the
  // printed three-decimal ASPL, from the closed form alone.
  struct Row {
    PaperShape shape;
    int diameter;
    double aspl;
  };
  for (const Row& row : {Row{Uniform(16, 4, 6), 10, 9.375}, Row{Uniform(16, 4, 4), 14, 12.371},
                         Row{Uniform(16, 4, 3), 16, 13.979}, Row{Uniform(16, 4, 2), 20, 17.375}}) {
    const DistanceOracle::Result got = DistanceOracle{row.shape}.Sweep();
    uint64_t pairs = 0;
    uint64_t total = 0;
    for (std::size_t d = 0; d < got.pairs_at_distance.size(); ++d) {
      pairs += got.pairs_at_distance[d];
      total += d * got.pairs_at_distance[d];
    }
    EXPECT_EQ(got.diameter, row.diameter);
    EXPECT_NEAR(static_cast<double>(total) / static_cast<double>(pairs), row.aspl, 5e-4);
  }
}

}  // namespace
}  // namespace dcn
