// MS-BFS-vs-BFS equivalence battery.
//
// The bit-parallel multi-source kernel (graph/msbfs.h) must agree with the
// single-source BfsDistances on every lane: same distances, same reachability,
// for every topology family, random graphs, failure overlays, disconnected
// graphs, and batch sizes straddling the 64-lane word width (1, 63, 64, 65,
// and all nodes). The aggregate sweep (AllPairsDistanceSweep) is pinned to a
// per-source reference accumulation, and determinism is re-checked across
// thread counts — including on a graph whose levels span several of the
// kernel's fixed chunks, where the levels themselves run on the pool.
#include "graph/msbfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "obs/obs.h"
#include "topology/abccc.h"
#include "topology/bccc.h"
#include "topology/bcube.h"
#include "topology/dcell.h"
#include "topology/fattree.h"
#include "topology/ficonn.h"

namespace dcn::graph {
namespace {

// Random connected plant: spanning tree plus chords, mixed node kinds,
// occasional parallel links (same shape as the CSR battery's).
Graph RandomGraph(Rng& rng) {
  Graph g;
  const std::size_t nodes = static_cast<std::size_t>(rng.NextInt(8, 120));
  for (std::size_t i = 0; i < nodes; ++i) {
    const bool server = i < 2 || rng.NextBernoulli(0.6);
    g.AddNode(server ? NodeKind::kServer : NodeKind::kSwitch);
  }
  for (std::size_t i = 1; i < nodes; ++i) {
    g.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(rng.NextUint64(i)));
  }
  const std::size_t chords = static_cast<std::size_t>(rng.NextInt(0, 20));
  for (std::size_t e = 0; e < chords; ++e) {
    const auto u = static_cast<NodeId>(rng.NextUint64(nodes));
    const auto v = static_cast<NodeId>(rng.NextUint64(nodes));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

// Two islands with no edge between them — reachability must stay per-island.
Graph DisconnectedGraph() {
  Graph g;
  for (int i = 0; i < 40; ++i) g.AddNode(NodeKind::kServer);
  for (int i = 1; i < 20; ++i) g.AddEdge(i, i - 1);       // island A: path
  for (int i = 21; i < 40; ++i) g.AddEdge(i, 20 + (i % 3));  // island B
  return g;
}

// Every topology family named by the paper comparison set.
std::vector<std::pair<std::string, Graph>> FamilyGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("abccc", topo::Abccc{topo::AbcccParams{3, 1, 2}}.Network());
  graphs.emplace_back("bccc", topo::Bccc{3, 1}.Network());
  graphs.emplace_back("bcube", topo::Bcube{3, 1}.Network());
  graphs.emplace_back("dcell", topo::Dcell{3, 1}.Network());
  graphs.emplace_back("ficonn", topo::FiConn{4, 1}.Network());
  graphs.emplace_back("fattree", topo::FatTree{4}.Network());
  graphs.emplace_back(
      "gabccc", topo::Abccc{topo::GeneralAbcccParams{{3, 4}, 2}}.Network());
  return graphs;
}

FailureSet RandomFailures(const Graph& g, Rng& rng) {
  FailureSet failures{g};
  for (NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount(); ++node) {
    if (rng.NextBernoulli(0.1)) failures.KillNode(node);
  }
  for (EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount(); ++edge) {
    if (rng.NextBernoulli(0.1)) failures.KillEdge(edge);
  }
  return failures;
}

// The contract under test: every row of MultiSourceDistances equals the
// single-source BFS from that row's source.
void ExpectMatchesPerSourceBfs(const Graph& g, std::span<const NodeId> sources,
                               const FailureSet* failures,
                               const std::string& label) {
  const CsrView& csr = g.Csr();
  const std::vector<int> dist = MultiSourceDistances(csr, sources, failures);
  ASSERT_EQ(dist.size(), sources.size() * csr.NodeCount()) << label;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::vector<int> expect = BfsDistances(g, sources[i], failures);
    for (std::size_t node = 0; node < csr.NodeCount(); ++node) {
      ASSERT_EQ(dist[i * csr.NodeCount() + node], expect[node])
          << label << " source " << sources[i] << " (lane " << i << ") node "
          << node;
    }
  }
}

// Source pools straddling the 64-lane boundary, clamped to the graph size.
std::vector<std::size_t> BatchSizes(std::size_t nodes) {
  std::vector<std::size_t> sizes;
  for (const std::size_t want : {std::size_t{1}, std::size_t{63},
                                 std::size_t{64}, std::size_t{65}, nodes}) {
    sizes.push_back(std::min(want, nodes));
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

// First `count` node ids, wrapping — includes duplicates once count > nodes
// would wrap, and always includes node 0.
std::vector<NodeId> FirstNodes(std::size_t count, std::size_t nodes) {
  std::vector<NodeId> sources(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources[i] = static_cast<NodeId>(i % nodes);
  }
  return sources;
}

TEST(MsBfsTest, MatchesBfsOnEveryFamilyAtEveryBatchSize) {
  for (const auto& [name, g] : FamilyGraphs()) {
    for (const std::size_t count : BatchSizes(g.NodeCount())) {
      ExpectMatchesPerSourceBfs(g, FirstNodes(count, g.NodeCount()), nullptr,
                                name + "/" + std::to_string(count));
    }
  }
}

TEST(MsBfsTest, MatchesBfsOnRandomGraphs) {
  Rng rng{20260806};
  for (int round = 0; round < 8; ++round) {
    const Graph g = RandomGraph(rng);
    for (const std::size_t count : BatchSizes(g.NodeCount())) {
      ExpectMatchesPerSourceBfs(g, FirstNodes(count, g.NodeCount()), nullptr,
                                "random-" + std::to_string(round));
    }
  }
}

TEST(MsBfsTest, MatchesBfsUnderRandomFailures) {
  Rng rng{20260807};
  auto graphs = FamilyGraphs();
  for (int round = 0; round < 4; ++round) {
    graphs.emplace_back("random-" + std::to_string(round), RandomGraph(rng));
  }
  for (const auto& [name, g] : graphs) {
    const FailureSet failures = RandomFailures(g, rng);
    for (const std::size_t count : BatchSizes(g.NodeCount())) {
      ExpectMatchesPerSourceBfs(g, FirstNodes(count, g.NodeCount()), &failures,
                                name + "/failures");
    }
  }
}

TEST(MsBfsTest, MatchesBfsOnDisconnectedGraph) {
  const Graph g = DisconnectedGraph();
  for (const std::size_t count : BatchSizes(g.NodeCount())) {
    ExpectMatchesPerSourceBfs(g, FirstNodes(count, g.NodeCount()), nullptr,
                              "disconnected");
  }
  // Spot-check the reachability words: island A lanes never see island B.
  MsBfsScope ws;
  const std::vector<NodeId> sources{0, 25};
  MultiSourceBfs(g.Csr(), sources, *ws, [](int, NodeId, std::uint64_t) {});
  EXPECT_EQ(ws->SeenWord(5), 1u);    // island A node: lane 0 only
  EXPECT_EQ(ws->SeenWord(30), 2u);   // island B node: lane 1 only
}

TEST(MsBfsTest, DuplicateAndDeadSourcesShareAndDropLanes) {
  const Graph g = DisconnectedGraph();
  const CsrView& csr = g.Csr();
  // Lanes 0 and 2 are the same source; lane 1 is killed.
  FailureSet failures{g};
  failures.KillNode(7);
  const std::vector<NodeId> sources{3, 7, 3};
  const std::vector<int> dist = MultiSourceDistances(csr, sources, &failures);
  const std::vector<int> expect = BfsDistances(g, 3, &failures);
  for (std::size_t node = 0; node < csr.NodeCount(); ++node) {
    EXPECT_EQ(dist[0 * csr.NodeCount() + node], expect[node]);
    EXPECT_EQ(dist[2 * csr.NodeCount() + node], expect[node]);
    EXPECT_EQ(dist[1 * csr.NodeCount() + node], kUnreachable);
  }
}

TEST(MsBfsTest, VisitReportsEachNodeOnceInLevelOrder) {
  const Graph g = topo::Abccc{topo::AbcccParams{3, 1, 2}}.Network();
  const CsrView& csr = g.Csr();
  const std::vector<NodeId> sources = FirstNodes(17, g.NodeCount());
  MsBfsScope ws;
  int last_level = -1;
  NodeId last_node = -1;
  std::vector<std::uint64_t> seen(csr.NodeCount(), 0);
  MultiSourceBfs(csr, sources, *ws,
                 [&](int level, NodeId node, std::uint64_t bits) {
                   ASSERT_NE(bits, 0u);
                   ASSERT_GE(level, last_level);
                   if (level == last_level) {
                     ASSERT_GT(node, last_node);  // ascending ids in a level
                   }
                   last_level = level;
                   last_node = node;
                   ASSERT_EQ(seen[static_cast<std::size_t>(node)] & bits, 0u)
                       << "lane re-settled";
                   seen[static_cast<std::size_t>(node)] |= bits;
                 });
  for (NodeId node = 0; static_cast<std::size_t>(node) < csr.NodeCount();
       ++node) {
    EXPECT_EQ(seen[static_cast<std::size_t>(node)], ws->SeenWord(node));
  }
}

TEST(MsBfsTest, ServerEccentricitiesMatchPerSourceMax) {
  Rng rng{20260808};
  auto graphs = FamilyGraphs();
  graphs.emplace_back("disconnected", DisconnectedGraph());
  graphs.emplace_back("random", RandomGraph(rng));
  for (const auto& [name, g] : graphs) {
    const CsrView& csr = g.Csr();
    const std::vector<NodeId> sources = FirstNodes(
        std::min<std::size_t>(65, g.NodeCount()), g.NodeCount());
    const std::vector<int> ecc = ServerEccentricities(csr, sources);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const std::vector<int> dist = BfsDistances(g, sources[i]);
      int expect = kUnreachable;
      for (const NodeId server : g.Servers()) {
        expect = std::max(expect, dist[static_cast<std::size_t>(server)]);
      }
      ASSERT_EQ(ecc[i], expect) << name << " source " << sources[i];
    }
  }
}

// Reference accumulation for the aggregate sweep from the given server
// sources: the per-source loops the MS-BFS version replaced.
AllPairsSweepStats ReferenceSweep(const Graph& g,
                                  std::span<const NodeId> sources) {
  AllPairsSweepStats ref;
  const auto servers = g.Servers();
  ref.radius = std::numeric_limits<int>::max();
  for (const NodeId src : sources) {
    const std::vector<int> dist = BfsDistances(g, src);
    int ecc = 0;
    std::size_t reached = 0;
    for (const NodeId dst : servers) {
      const int d = dist[static_cast<std::size_t>(dst)];
      if (d == kUnreachable) continue;
      ++reached;
      if (dst == src) continue;
      ref.distance_total += d;
      ++ref.pairs;
      ecc = std::max(ecc, d);
      if (ref.pairs_at_distance.size() <= static_cast<std::size_t>(d)) {
        ref.pairs_at_distance.resize(static_cast<std::size_t>(d) + 1, 0);
      }
      ++ref.pairs_at_distance[static_cast<std::size_t>(d)];
    }
    ref.diameter = std::max(ref.diameter, ecc);
    ref.radius = std::min(ref.radius, ecc);
    if (reached != servers.size()) ref.connected = false;
  }
  if (sources.empty()) ref.radius = 0;
  return ref;
}

AllPairsSweepStats ReferenceSweep(const Graph& g) {
  return ReferenceSweep(g, g.Servers());
}

void ExpectSweepEq(const AllPairsSweepStats& got, const AllPairsSweepStats& ref,
                   const std::string& label) {
  EXPECT_EQ(got.distance_total, ref.distance_total) << label;
  EXPECT_EQ(got.pairs, ref.pairs) << label;
  EXPECT_EQ(got.diameter, ref.diameter) << label;
  EXPECT_EQ(got.radius, ref.radius) << label;
  EXPECT_EQ(got.connected, ref.connected) << label;
  // The histogram may carry trailing/leading zero buckets; compare padded.
  auto padded = [](std::vector<std::uint64_t> h, std::size_t n) {
    h.resize(std::max(h.size(), n), 0);
    return h;
  };
  const std::size_t buckets =
      std::max(got.pairs_at_distance.size(), ref.pairs_at_distance.size());
  EXPECT_EQ(padded(got.pairs_at_distance, buckets),
            padded(ref.pairs_at_distance, buckets))
      << label;
}

TEST(MsBfsTest, AllPairsSweepMatchesReference) {
  Rng rng{20260809};
  auto graphs = FamilyGraphs();
  graphs.emplace_back("disconnected", DisconnectedGraph());
  for (int round = 0; round < 4; ++round) {
    graphs.emplace_back("random-" + std::to_string(round), RandomGraph(rng));
  }
  for (const auto& [name, g] : graphs) {
    ExpectSweepEq(AllPairsDistanceSweep(g.Csr()), ReferenceSweep(g), name);
  }
}

TEST(MsBfsTest, AllPairsSweepIsThreadCountInvariant) {
  const Graph g = topo::Abccc{topo::AbcccParams{3, 2, 2}}.Network();
  SetThreadCount(1);
  const AllPairsSweepStats serial = AllPairsDistanceSweep(g.Csr());
  for (const int threads : {2, 7}) {
    SetThreadCount(threads);
    const AllPairsSweepStats parallel = AllPairsDistanceSweep(g.Csr());
    EXPECT_EQ(serial.distance_total, parallel.distance_total)
        << "threads=" << threads;
    EXPECT_EQ(serial.pairs, parallel.pairs) << "threads=" << threads;
    EXPECT_EQ(serial.diameter, parallel.diameter) << "threads=" << threads;
    EXPECT_EQ(serial.radius, parallel.radius) << "threads=" << threads;
    EXPECT_EQ(serial.pairs_at_distance, parallel.pairs_at_distance)
        << "threads=" << threads;
  }
  SetThreadCount(0);
}

// ABCCC(8,4,3) has 151,552 nodes, several of the kernel's fixed level chunks
// (msbfs_detail::kLevelChunk). Healthy, its bottom-up levels split the
// unfinished list and its top-down claims split the touched bitmap; under
// failures every level runs top-down, so the scatter of its widest levels
// splits the frontier too. One block of sources, so the levels run on the
// pool: results must equal per-source BFS, and the work counters must not
// move, at any thread count.
TEST(MsBfsTest, MultiChunkLevelsMatchBfsAtAnyThreadCount) {
  const Graph g = topo::Abccc{topo::AbcccParams{8, 4, 3}}.Network();
  const CsrView& csr = g.Csr();
  ASSERT_GT(g.NodeCount(), 4 * msbfs_detail::kLevelChunk);
  const auto servers = g.Servers();
  const std::vector<NodeId> sources{servers[0], servers[servers.size() / 3],
                                    servers[servers.size() / 2],
                                    servers.back()};
  Rng rng{20260810};
  FailureSet failures{g};
  for (NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount(); ++node) {
    if (rng.NextBernoulli(0.02) &&
        std::find(sources.begin(), sources.end(), node) == sources.end()) {
      failures.KillNode(node);
    }
  }
  for (EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount(); ++edge) {
    if (rng.NextBernoulli(0.02)) failures.KillEdge(edge);
  }

  struct Run {
    std::vector<int> dist, dist_failed, ecc, ecc_failed;
    std::vector<std::uint64_t> counters;
    std::int64_t widest_frontier_log2 = 0;
  };
  const std::vector<std::string> counter_names{
      "msbfs/batches",          "msbfs/lanes",
      "msbfs/levels_top_down",  "msbfs/levels_bottom_up",
      "msbfs/direction_switches", "parallel/regions",
      "parallel/chunks"};
  const AllPairsSweepStats want_sweep = ReferenceSweep(g, sources);
  std::vector<Run> runs;
  for (const int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    obs::Reset();
    Run run;
    run.dist = MultiSourceDistances(csr, sources);
    run.dist_failed = MultiSourceDistances(csr, sources, &failures);
    run.ecc = ServerEccentricities(csr, sources);
    run.ecc_failed = ServerEccentricities(csr, sources, &failures);
    ExpectSweepEq(DistanceSweepFromSources(csr, sources), want_sweep,
                  "threads=" + std::to_string(threads));
    for (const std::string& name : counter_names) {
      run.counters.push_back(obs::CounterValue(name));
    }
    run.widest_frontier_log2 =
        obs::GetHistogram("msbfs/frontier_log2").Value().max;
    runs.push_back(std::move(run));
  }
  SetThreadCount(0);
  obs::Reset();

  // The widest level's frontier spans at least two chunks, and the levels
  // went through parallel regions.
  EXPECT_GT(std::int64_t{1} << (runs[0].widest_frontier_log2 - 1),
            static_cast<std::int64_t>(msbfs_detail::kLevelChunk));
  EXPECT_GT(runs[0].counters[5], 0u);

  const std::size_t nodes = g.NodeCount();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::vector<int> healthy = BfsDistances(g, sources[i]);
    const std::vector<int> failed = BfsDistances(g, sources[i], &failures);
    int ecc = kUnreachable;
    int ecc_failed = kUnreachable;
    for (const NodeId server : servers) {
      ecc = std::max(ecc, healthy[static_cast<std::size_t>(server)]);
      ecc_failed =
          std::max(ecc_failed, failed[static_cast<std::size_t>(server)]);
    }
    const auto row = static_cast<std::ptrdiff_t>(i * nodes);
    for (const Run& run : runs) {
      ASSERT_TRUE(std::equal(healthy.begin(), healthy.end(),
                             run.dist.begin() + row))
          << "source " << sources[i];
      ASSERT_TRUE(std::equal(failed.begin(), failed.end(),
                             run.dist_failed.begin() + row))
          << "source " << sources[i] << " under failures";
      EXPECT_EQ(run.ecc[i], ecc);
      EXPECT_EQ(run.ecc_failed[i], ecc_failed);
    }
  }
  for (const Run& run : runs) {
    EXPECT_EQ(run.counters, runs[0].counters);
    EXPECT_EQ(run.widest_frontier_log2, runs[0].widest_frontier_log2);
  }
}

// A reused workspace must not leak lanes between batches of very different
// sizes (the freelist keeps buffers warm across blocks).
TEST(MsBfsTest, WorkspaceReuseAcrossSizesStaysClean) {
  const Graph small = RandomGraph(*std::make_unique<Rng>(5).get());
  Rng rng{6};
  const Graph large = RandomGraph(rng);
  MsBfsScope ws;
  for (int round = 0; round < 50; ++round) {
    const Graph& g = (round % 2 == 0) ? small : large;
    const std::size_t lanes = 1 + (static_cast<std::size_t>(round) % 64);
    const std::vector<NodeId> sources = FirstNodes(lanes, g.NodeCount());
    std::vector<int> dist(g.NodeCount(), kUnreachable);
    MultiSourceBfs(g.Csr(), sources, *ws,
                   [&](int level, NodeId node, std::uint64_t bits) {
                     if (bits & 1) dist[static_cast<std::size_t>(node)] = level;
                   });
    const std::vector<int> expect = BfsDistances(g, sources[0]);
    ASSERT_EQ(dist, expect) << "round " << round;
  }
}

}  // namespace
}  // namespace dcn::graph
