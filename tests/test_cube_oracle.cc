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
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/bcube.h"

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

}  // namespace
}  // namespace dcn
