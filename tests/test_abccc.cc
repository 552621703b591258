#include "topology/abccc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/error.h"
#include "graph/bfs.h"
#include "reference.h"
#include "topology/bccc.h"
#include "topology/bcube.h"

namespace dcn::topo {
namespace {

TEST(AbcccParamsTest, Validation) {
  EXPECT_NO_THROW((AbcccParams{2, 0, 2}.Validate()));
  EXPECT_THROW((AbcccParams{1, 0, 2}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((AbcccParams{2, -1, 2}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((AbcccParams{2, 0, 1}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((AbcccParams{2, 63, 2}.Validate()), dcn::InvalidArgument);
}

TEST(AbcccParamsTest, RowLengthIsCeilDivision) {
  // m = ceil((k+1)/(c-1)).
  EXPECT_EQ((AbcccParams{4, 2, 2}.RowLength()), 3);   // 3 levels / 1 per server
  EXPECT_EQ((AbcccParams{4, 2, 3}.RowLength()), 2);   // ceil(3/2)
  EXPECT_EQ((AbcccParams{4, 2, 4}.RowLength()), 1);   // ceil(3/3)
  EXPECT_EQ((AbcccParams{4, 5, 3}.RowLength()), 3);   // ceil(6/2)
  EXPECT_EQ((AbcccParams{4, 0, 2}.RowLength()), 1);
}

TEST(AbcccParamsTest, AgentLevelSpans) {
  const AbcccParams p{4, 4, 3};  // 5 levels, c-1 = 2 => roles {0,1,2}
  EXPECT_EQ(p.AgentLevels(0), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(p.AgentLevels(1), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(p.AgentLevels(2), (std::pair<int, int>{4, 4}));  // truncated
  EXPECT_EQ(p.AgentRole(0), 0);
  EXPECT_EQ(p.AgentRole(3), 1);
  EXPECT_EQ(p.AgentRole(4), 2);
  EXPECT_THROW(p.AgentLevels(3), dcn::InvalidArgument);
}

TEST(AbcccParamsTest, PortsUsedNeverExceedsC) {
  for (int n : {2, 4}) {
    for (int k = 0; k <= 5; ++k) {
      for (int c = 2; c <= k + 3; ++c) {
        const AbcccParams p{n, k, c};
        for (int role = 0; role < p.RowLength(); ++role) {
          EXPECT_LE(p.PortsUsed(role), c) << "n=" << n << " k=" << k << " c=" << c;
          EXPECT_GE(p.PortsUsed(role), 1);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structural sweep over (n, k, c).
// ---------------------------------------------------------------------------

class AbcccStructure
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  AbcccParams P() const {
    const auto [n, k, c] = GetParam();
    return AbcccParams{n, k, c};
  }
};

TEST_P(AbcccStructure, CountsMatchFormulas) {
  const AbcccParams p = P();
  const Abccc net{p};
  EXPECT_EQ(net.ServerCount(), p.ServerTotal());
  EXPECT_EQ(net.SwitchCount(), p.CrossbarTotal() + p.LevelSwitchTotal());
  EXPECT_EQ(net.LinkCount(), p.LinkTotal());
}

TEST_P(AbcccStructure, DegreesMatchRoles) {
  const AbcccParams p = P();
  const Abccc net{p};
  const graph::Graph& g = net.Network();
  for (const graph::NodeId server : net.Servers()) {
    const AbcccAddress addr = net.AddressOf(server);
    EXPECT_EQ(g.Degree(server), static_cast<std::size_t>(p.PortsUsed(addr.role)));
  }
  if (p.HasCrossbars()) {
    for (std::uint64_t row = 0; row < p.RowCount(); ++row) {
      EXPECT_EQ(g.Degree(net.CrossbarAt(row)),
                static_cast<std::size_t>(p.RowLength()));
    }
  }
  // Every level switch has exactly n ports.
  std::size_t checked = 0;
  for (graph::NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
       ++node) {
    if (!g.IsSwitch(node)) continue;
    if (p.HasCrossbars() &&
        static_cast<std::uint64_t>(node) <
            p.ServerTotal() + p.CrossbarTotal()) {
      continue;  // crossbar, already checked
    }
    EXPECT_EQ(g.Degree(node), static_cast<std::size_t>(p.n));
    ++checked;
  }
  EXPECT_EQ(checked, p.LevelSwitchTotal());
}

TEST_P(AbcccStructure, AddressRoundTrip) {
  const Abccc net{P()};
  for (const graph::NodeId server : net.Servers()) {
    const AbcccAddress addr = net.AddressOf(server);
    EXPECT_EQ(net.ServerAt(addr.digits, addr.role), server);
  }
}

TEST_P(AbcccStructure, AgentAdjacency) {
  const AbcccParams p = P();
  const Abccc net{p};
  const graph::Graph& g = net.Network();
  for (const graph::NodeId server : net.Servers()) {
    const AbcccAddress addr = net.AddressOf(server);
    const auto [lo, hi] = p.AgentLevels(addr.role);
    for (int level = lo; level <= hi; ++level) {
      EXPECT_TRUE(g.Adjacent(server, net.LevelSwitchAt(level, addr.digits)));
    }
    if (p.HasCrossbars()) {
      EXPECT_TRUE(g.Adjacent(server, net.CrossbarAt(net.RowOf(server))));
    }
  }
}

TEST_P(AbcccStructure, LevelSwitchConnectsPlane) {
  const AbcccParams p = P();
  const Abccc net{p};
  const graph::Graph& g = net.Network();
  // Pick the all-zero row; the level-l switch must connect exactly the n
  // agent servers whose digit l varies.
  Digits digits(static_cast<std::size_t>(p.k + 1), 0);
  for (int level = 0; level <= p.k; ++level) {
    const graph::NodeId sw = net.LevelSwitchAt(level, digits);
    std::set<graph::NodeId> expected;
    Digits probe = digits;
    for (int d = 0; d < p.n; ++d) {
      probe[level] = d;
      expected.insert(net.ServerAt(probe, p.AgentRole(level)));
    }
    std::set<graph::NodeId> actual;
    for (const graph::HalfEdge& half : g.Neighbors(sw)) actual.insert(half.to);
    EXPECT_EQ(actual, expected) << "level " << level;
  }
}

TEST_P(AbcccStructure, IsConnected) {
  const Abccc net{P()};
  EXPECT_TRUE(graph::IsConnected(net.Network()));
}

TEST_P(AbcccStructure, DiameterIsExact) {
  const Abccc net{P()};
  // Every server's eccentricity is the diameter (a farthest server differs
  // in every digit), so BFS from server 0 must reach the closed form exactly.
  const std::vector<int> dist = graph::BfsDistances(net.Network(), 0);
  int ecc = 0;
  for (const graph::NodeId server : net.Servers()) {
    ASSERT_NE(dist[server], graph::kUnreachable);
    ecc = std::max(ecc, dist[server]);
  }
  EXPECT_EQ(ecc, CubeDiameter(P().k, P().c));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AbcccStructure,
    ::testing::Values(std::tuple{2, 0, 2}, std::tuple{2, 1, 2},
                      std::tuple{2, 2, 2}, std::tuple{2, 3, 3},
                      std::tuple{3, 1, 2}, std::tuple{3, 2, 2},
                      std::tuple{3, 2, 3}, std::tuple{3, 2, 4},
                      std::tuple{4, 1, 2}, std::tuple{4, 2, 3},
                      std::tuple{4, 2, 5}, std::tuple{4, 3, 4},
                      std::tuple{5, 1, 3}, std::tuple{6, 1, 2},
                      std::tuple{8, 1, 2}, std::tuple{4, 3, 2},
                      std::tuple{2, 5, 2}, std::tuple{3, 3, 4},
                      std::tuple{5, 2, 2}, std::tuple{7, 1, 2},
                      std::tuple{4, 3, 5}, std::tuple{6, 2, 4}));

// ---------------------------------------------------------------------------
// Degenerate cases and identities.
// ---------------------------------------------------------------------------

TEST(AbcccTest, LargeCDegeneratesToBcubeShape) {
  // c >= k+2 means one server per row and no crossbars: BCube's shape,
  // n^(k+1) servers, (k+1)·n^k switches, (k+1)·n^(k+1) links, k+1 ports.
  const AbcccParams p{4, 2, 4};
  const Abccc net{p};
  EXPECT_FALSE(p.HasCrossbars());
  EXPECT_EQ(net.ServerCount(), 64u);
  EXPECT_EQ(net.SwitchCount(), 48u);
  EXPECT_EQ(net.LinkCount(), 192u);
  EXPECT_EQ(net.ServerPorts(), 3);
}

TEST(AbcccTest, BcccIsAbcccWithTwoPorts) {
  const Bccc bccc{4, 2};
  EXPECT_EQ(bccc.Params().c, 2);
  EXPECT_EQ(bccc.ServerCount(), (AbcccParams{4, 2, 2}.ServerTotal()));
  EXPECT_EQ(bccc.LinkCount(), (AbcccParams{4, 2, 2}.LinkTotal()));
  EXPECT_EQ(bccc.Name(), "BCCC");
  EXPECT_EQ(bccc.Describe(), "BCCC(n=4,k=2)");
}

TEST(AbcccTest, ServerPortsReportsDesignRequirement) {
  const Abccc two_port{AbcccParams{4, 2, 2}};
  EXPECT_EQ(two_port.ServerPorts(), 2);
  const Abccc three_port{AbcccParams{4, 4, 3}};
  EXPECT_EQ(three_port.ServerPorts(), 3);
  const Abccc bcube_like{AbcccParams{4, 2, 4}};  // m == 1: k+1 ports
  EXPECT_EQ(bcube_like.ServerPorts(), 3);
}

TEST(AbcccTest, NodeLabels) {
  const Abccc net{AbcccParams{4, 1, 2}};
  EXPECT_EQ(net.NodeLabel(net.ServerAt(Digits{2, 1}, 0)), "<12;0>");
  EXPECT_EQ(net.NodeLabel(net.CrossbarAt(0)), "X(00)");
  const graph::NodeId sw = net.LevelSwitchAt(0, Digits{3, 2});
  EXPECT_EQ(net.NodeLabel(sw), "S0(2*)");
  EXPECT_THROW(net.NodeLabel(-1), dcn::InvalidArgument);
}

TEST(AbcccTest, DescribeMentionsAllParameters) {
  const Abccc net{AbcccParams{5, 2, 3}};
  EXPECT_EQ(net.Describe(), "ABCCC(n=5,k=2,c=3)");
  EXPECT_EQ(net.Name(), "ABCCC");
}

TEST(AbcccTest, AccessorPreconditions) {
  const Abccc net{AbcccParams{4, 1, 2}};
  EXPECT_THROW(net.AddressOf(-1), dcn::InvalidArgument);
  EXPECT_THROW(net.AddressOf(static_cast<graph::NodeId>(net.ServerCount())),
               dcn::InvalidArgument);
  EXPECT_THROW(net.ServerAt(Digits{0}, 0), dcn::InvalidArgument);  // wrong size
  EXPECT_THROW(net.ServerAtRow(0, 9), dcn::InvalidArgument);
  EXPECT_THROW(net.LevelSwitchAt(5, Digits{0, 0}), dcn::InvalidArgument);
  const Abccc flat{AbcccParams{4, 0, 2}};  // m == 1: no crossbars
  EXPECT_THROW(flat.CrossbarAt(0), dcn::InvalidArgument);
}

TEST(AbcccTest, TheoreticalBisectionMatchesMeasuredCutShape) {
  // For even n the analytic most-significant-digit cut is n^k * n/2.
  const Abccc net{AbcccParams{4, 1, 2}};
  EXPECT_DOUBLE_EQ(net.TheoreticalBisection(), 4.0 * 2.0);
}

TEST(AbcccTest, BisectionHalvesSplitOnMostSignificantDigit) {
  const AbcccParams p{4, 1, 2};
  const Abccc net{p};
  const auto [side_a, side_b] = net.BisectionHalves();
  EXPECT_EQ(side_a.size(), side_b.size());
  for (const graph::NodeId server : side_a) {
    EXPECT_LT(net.AddressOf(server).digits[p.k], p.n / 2);
  }
  for (const graph::NodeId server : side_b) {
    EXPECT_GE(net.AddressOf(server).digits[p.k], p.n / 2);
  }
}

}  // namespace
}  // namespace dcn::topo
