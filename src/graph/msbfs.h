// Bit-parallel multi-source BFS (MS-BFS).
//
// One pass of MultiSourceBfs advances up to 64 BFS traversals at once: every
// node carries a single `uint64_t` word per bitmap (seen / current frontier /
// next frontier) in which bit j belongs to source lane j. A level expansion
// ORs frontier words across edges instead of walking one queue per source, so
// the graph — and every cache line of the CSR arrays — is touched once per
// level for the whole batch rather than once per source. On the cube-based
// topologies here, a block of 64 insertion-order-adjacent servers shares most
// of its frontier, which is where the order-of-magnitude win over 64 separate
// sweeps comes from.
//
// The kernel is direction-optimizing: sparse levels run top-down (scatter the
// frontier words of active nodes to their neighbors, marking each touched
// node in a one-bit-per-node bitmap, then claim the touched nodes by walking
// that bitmap word by word — O(V/64 + touched), ascending, no sort), dense
// levels run bottom-up (each still-unfinished node gathers its neighbors'
// frontier words branchlessly — on these low-degree topologies an early-exit
// test costs more than the one or two extra ORs it saves). The switch is
// keyed on frontier size against the shrinking not-yet-finished node set — a
// pure function of the traversal state — and both directions compute the
// identical next frontier, so results never depend on the direction taken.
//
// Where the parallelism goes. A sweep with many source blocks runs the blocks
// in parallel (ParallelMapReduce, one block per chunk) and each block's levels
// inline. A sweep of a single block — the symmetry-reduced exact stats use
// one source per role, so one block even at millions of servers — would leave
// every core but one idle that way, so its block runs on the calling thread
// and every level is split into fixed chunks of kLevelChunk items that go to
// the pool:
//   * bottom-up: chunks of the unfinished list (of all node ids on the first
//     bottom-up level, which builds the list). A node writes only its own
//     seen/next words and reads only the current frontier;
//   * top-down: the scatter runs over chunks of the frontier list, OR-ing into
//     next words and the touched bitmap, and the claim over ranges of bitmap
//     words, each range owning its nodes' words;
//   * both: the new frontier is counted and collected per range of bitmap
//     words, and the old one retired per chunk of the frontier list.
// Chunks running concurrently OR shared words with relaxed atomics (OR is
// order-free); chunks running inline — one chunk, one thread, or a level
// nested inside a block-parallel sweep — use plain ORs, which cost a fraction
// of an atomic. `visit` alone stays on the calling thread, so callers fold
// their aggregates without synchronization.
//
// Determinism contract: distances and visit callbacks are a pure function of
// (graph, sources, failures). Chunk bounds depend only on the number of items
// a level splits, never on the thread count; all lane combination is bitwise
// OR; each gather chunk compacts its surviving unfinished entries in place
// and the chunks are concatenated in chunk order; each range of bitmap words
// writes its frontier nodes at the offset the ranges before it fix, so the
// new frontier lists in ascending node id; and the calling thread calls
// `visit` once per node, in that order. Block-parallel callers
// (metrics/path_metrics.cc) split sources into fixed 64-lane blocks merged in
// block order via ParallelMapReduce — results, and the region and chunk
// counters, are bit-identical for any thread count. tests/test_msbfs.cc pins
// MS-BFS distances to per-source BFS() on every topology family, with and
// without failures, and on a graph whose levels span many chunks;
// tests/test_cube_oracle.cc pins the sweeps to a closed form of the cube
// distances.
//
// The kernel and the sweep aggregates are templates over any TraversalGraph
// (graph/implicit.h): a CsrView, or an implicit topology whose neighbors are
// recomputed by address arithmetic. Both traversal directions run through
// ForEachNeighbor and compute the identical frontier, so direction
// optimization stays available without a CSR; only the edge-failure scatter
// needs per-edge ids and is gated on HasAdjacencySpans (implicit graphs
// accept node failures only). The CsrView signatures below are kept as
// exact-match overloads — existing callers resolve to them unchanged, and
// tests/test_implicit.cc pins implicit results bit-identical to them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "graph/workspace.h"
#include "obs/obs.h"

namespace dcn::graph {

// Lane width of one batch: one bit per source in a machine word.
inline constexpr std::size_t kMsBfsLanes = 64;

namespace msbfs_detail {
// Run a level bottom-up once active nodes exceed unfinished/kBottomUpDivisor.
// Top-down work is O(edges out of the frontier); bottom-up is O(edges into
// still-unfinished nodes), which wins once the frontier is a sizable slice of
// what is left. Swept empirically on the ABCCC(4,3,2) all-pairs kernel:
// 6 beat 2/4/16/32 with a shallow optimum.
inline constexpr std::size_t kBottomUpDivisor = 6;

// Items per level chunk: list entries, or nodes of the touched bitmap (the
// claim's chunks are kLevelChunk / 64 words). A constant, so a level's chunk
// bounds depend only on how many items it splits. Large enough that a chunk
// outweighs handing it to the pool, and that every level of the
// few-thousand-server graphs the block-parallel sweeps cover fits one chunk.
inline constexpr std::size_t kLevelChunk = std::size_t{1} << 15;
inline constexpr std::size_t kLevelChunkWords = kLevelChunk / 64;

// Applies `fn(lane)` to every set bit of `word`.
template <typename Fn>
void ForEachLane(std::uint64_t word, Fn&& fn) {
  while (word != 0) {
    fn(static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

inline std::uint64_t NodeBit(NodeId node) {
  return std::uint64_t{1} << (static_cast<std::size_t>(node) % 64);
}

// ORs `bits` into `slot`. Chunks running concurrently (Shared =
// std::true_type) share destination words, so they OR with a relaxed atomic —
// OR is order-free and the region's join publishes the result — and skip it
// when the bits are already there. Inline chunks use a plain OR: an atomic
// costs several times as much with no other thread to race.
template <typename Shared>
void OrInto(std::uint64_t& slot, std::uint64_t bits) {
  if constexpr (Shared::value) {
    std::atomic_ref<std::uint64_t> ref{slot};
    if ((ref.load(std::memory_order_relaxed) & bits) != bits) {
      ref.fetch_or(bits, std::memory_order_relaxed);
    }
  } else {
    slot |= bits;
  }
}

// Runs body(shared, chunk, begin, end) over [0, items) in fixed chunks of
// `chunk` items. One chunk runs directly; more go through ParallelFor, which
// hands them to the pool unless this thread is already inside a region or
// the pool has one thread. `shared` is std::true_type exactly when chunks
// may run concurrently.
template <typename Body>
void ForEachLevelChunk(std::size_t items, std::size_t chunk, Body&& body) {
  const std::size_t chunks = ChunkCount(items, chunk);
  const auto run = [&](auto shared) {
    ParallelFor(items, chunk, [&](std::size_t begin, std::size_t end) {
      body(shared, begin / chunk, begin, end);
    });
  };
  if (chunks == 1) {
    body(std::false_type{}, 0, 0, items);
  } else if (RegionRunsOnPool(chunks)) {
    run(std::true_type{});
  } else {
    run(std::false_type{});
  }
}
}  // namespace msbfs_detail

// All-lanes-set mask for a batch of `lanes` sources (lanes in [0, 64]).
inline std::uint64_t MsBfsLaneMask(std::size_t lanes) {
  return lanes >= kMsBfsLanes ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << lanes) - 1;
}

// Advances one batch of up to 64 sources to exhaustion. For every node that
// is newly reached at BFS level d (in links, level 0 = the sources
// themselves), calls
//
//   visit(d, node, bits)
//
// exactly once, on the calling thread, where bit j of `bits` is set iff
// sources[j] first reaches `node` at distance d. Levels are visited in
// increasing order; within a level, nodes in ascending id order. Duplicate
// sources share a node and are reported together; a source dead under
// `failures` never seeds its lane (its bit appears in no callback). After the
// call ws.SeenWord(node) holds the union of all levels' bits — the per-lane
// reachability readout.
//
// With `failures`, traversal skips dead nodes/links exactly like the
// single-source BfsDistances; direction optimization is disabled because the
// bottom-up gather cannot consult per-edge liveness through the edge-blind
// adjacency array (failure sweeps are sparse frontiers in practice). Models
// without adjacency spans (implicit topologies) have no edge ids at all, so
// there `failures` must carry node failures only.
template <TraversalGraph G, typename Visit>
void MultiSourceBfs(const G& g, std::span<const NodeId> sources,
                    MsBfsWorkspace& ws, Visit&& visit,
                    const FailureSet* failures = nullptr) {
  using msbfs_detail::kLevelChunk;
  using msbfs_detail::NodeBit;
  using msbfs_detail::OrInto;
  DCN_REQUIRE(sources.size() <= kMsBfsLanes,
              "MultiSourceBfs batch exceeds 64 lanes");
  RequireSupportedFailures<G>(failures);
  const std::size_t nodes = g.NodeCount();
  const std::size_t words = (nodes + 63) / 64;
  ws.Begin(nodes);
  std::uint64_t* const seen = ws.Seen();
  std::uint64_t* const touched = ws.Touched();
  // `cur` is the current level's frontier, `nxt` the one being built; they
  // rotate by pointer swap, with the retired frontier zeroed through the
  // outgoing active list — no O(V) pass per level.
  std::uint64_t* cur = ws.Front();
  std::uint64_t* nxt = ws.Next();
  std::vector<NodeId>* active = &ws.Active();
  std::vector<NodeId>* spare = &ws.Spare();
  // Nodes still missing at least one live lane, ascending, built on the
  // first bottom-up level and compacted as lanes settle. Its size bounds the
  // useful bottom-up work, so it also drives the direction switch.
  std::vector<NodeId>& unfinished = ws.Unfinished();
  std::vector<std::size_t>& kept = ws.ChunkCounts();
  bool unfinished_built = false;
  std::size_t unfinished_size = nodes;

  std::uint64_t live = 0;  // lanes actually seeded (dead sources drop out)
  for (std::size_t lane = 0; lane < sources.size(); ++lane) {
    const NodeId src = sources[lane];
    DCN_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < nodes,
                "MultiSourceBfs source out of range");
    if (failures != nullptr && failures->NodeDead(src)) continue;
    const std::uint64_t bit = std::uint64_t{1} << lane;
    if (seen[src] == 0) active->push_back(src);
    seen[src] |= bit;
    cur[src] |= bit;
    live |= bit;
  }
  std::sort(active->begin(), active->end());
  for (const NodeId node : *active) visit(0, node, cur[node]);

  // obs: batch/lane totals plus per-level frontier size (log2 buckets) and
  // the top-down/bottom-up switch decisions — the internals that explain the
  // direction-optimizing kernel's behavior. All exact integers, a handful of
  // relaxed shard increments per LEVEL (never per node or edge), so the
  // traversal itself is untouched and the merged values are bit-identical at
  // any thread count.
  OBS_SPAN("msbfs/batch");
  static obs::Counter& obs_batches = obs::GetCounter("msbfs/batches");
  static obs::Counter& obs_lanes = obs::GetCounter("msbfs/lanes");
  static obs::Counter& obs_td = obs::GetCounter("msbfs/levels_top_down");
  static obs::Counter& obs_bu = obs::GetCounter("msbfs/levels_bottom_up");
  static obs::Counter& obs_switches =
      obs::GetCounter("msbfs/direction_switches");
  static obs::Histogram& obs_frontier =
      obs::GetHistogram("msbfs/frontier_log2");
  obs_batches.Add(1);
  obs_lanes.Add(static_cast<std::uint64_t>(std::popcount(live)));
  bool obs_prev_bottom_up = false;

  for (int level = 1; !active->empty(); ++level) {
    const std::span<const NodeId> front{*active};
    const bool bottom_up =
        failures == nullptr &&
        front.size() * msbfs_detail::kBottomUpDivisor > unfinished_size;
    (bottom_up ? obs_bu : obs_td).Add(1);
    if (level > 1 && bottom_up != obs_prev_bottom_up) obs_switches.Add(1);
    obs_prev_bottom_up = bottom_up;
    obs_frontier.Add(std::bit_width(front.size()));
    if (bottom_up) {
      // Gather: every node still missing lanes pulls the frontier words of
      // all its neighbors (branchless; degrees here are small) and settles
      // in place — a node writes only its own `seen`/`nxt` words and reads
      // only `cur`, so chunks never conflict. New frontier nodes are marked
      // in the touched bitmap (one OR per word run of a chunk); nodes still
      // missing lanes are compacted stably to the front of their chunk.
      const bool build = !unfinished_built;
      const std::size_t items = build ? nodes : unfinished.size();
      if (build) unfinished.resize(nodes);
      kept.assign(ChunkCount(items, kLevelChunk), 0);
      msbfs_detail::ForEachLevelChunk(
          items, kLevelChunk,
          [&](auto shared, std::size_t chunk, std::size_t begin,
              std::size_t end) {
            using Shared = decltype(shared);
            std::size_t out = begin;
            std::size_t mark_word = 0;
            std::uint64_t mark_bits = 0;
            for (std::size_t i = begin; i < end; ++i) {
              const NodeId node =
                  build ? static_cast<NodeId>(i) : unfinished[i];
              const std::uint64_t miss = live & ~seen[node];
              if (miss == 0) continue;
              std::uint64_t acc = 0;
              g.ForEachNeighbor(node, [&](const NodeId nb) { acc |= cur[nb]; });
              const std::uint64_t add = acc & miss;
              if (add != 0) {
                seen[node] |= add;
                nxt[node] = add;
                const std::size_t word = static_cast<std::size_t>(node) / 64;
                if (word != mark_word && mark_bits != 0) {
                  OrInto<Shared>(touched[mark_word], mark_bits);
                  mark_bits = 0;
                }
                mark_word = word;
                mark_bits |= NodeBit(node);
              }
              if (add != miss) unfinished[out++] = node;
            }
            if (mark_bits != 0) OrInto<Shared>(touched[mark_word], mark_bits);
            kept[chunk] = out - begin;
          });
      // Concatenate the chunks' survivors in chunk order, in place.
      std::size_t size = 0;
      for (std::size_t chunk = 0; chunk < kept.size(); ++chunk) {
        const auto first = unfinished.begin() +
                           static_cast<std::ptrdiff_t>(chunk * kLevelChunk);
        if (size != chunk * kLevelChunk) {
          std::copy(first, first + static_cast<std::ptrdiff_t>(kept[chunk]),
                    unfinished.begin() + static_cast<std::ptrdiff_t>(size));
        }
        size += kept[chunk];
      }
      unfinished.resize(size);
      unfinished_built = true;
      unfinished_size = size;
      // Retire the old frontier (zero exactly its nonzero words); the
      // gather read it until now.
      msbfs_detail::ForEachLevelChunk(
          front.size(), kLevelChunk,
          [&](auto, std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) cur[front[i]] = 0;
          });
    } else {
      // Scatter: push each active node's word to every live neighbor and
      // mark the neighbor touched. The node's own `cur` word is read only
      // here, so it is retired on the spot.
      msbfs_detail::ForEachLevelChunk(
          front.size(), kLevelChunk,
          [&](auto shared, std::size_t, std::size_t begin, std::size_t end) {
            using Shared = decltype(shared);
            for (std::size_t i = begin; i < end; ++i) {
              const NodeId node = front[i];
              const std::uint64_t word = cur[node];
              cur[node] = 0;
              ForEachLiveNeighbor(g, failures, node, [&](const NodeId nb) {
                OrInto<Shared>(nxt[nb], word);
                OrInto<Shared>(touched[static_cast<std::size_t>(nb) / 64],
                               NodeBit(nb));
              });
            }
          });
      // Claim, per range of bitmap words: a touched node keeps the lanes it
      // had not seen; one that gained none is unmarked and its word zeroed.
      msbfs_detail::ForEachLevelChunk(
          words, msbfs_detail::kLevelChunkWords,
          [&](auto, std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t w = begin; w < end; ++w) {
              const std::uint64_t marks = touched[w];
              if (marks == 0) continue;
              std::uint64_t claimed = marks;
              msbfs_detail::ForEachLane(marks, [&](std::size_t bit) {
                const std::size_t node = w * 64 + bit;
                const std::uint64_t add = nxt[node] & ~seen[node];
                seen[node] |= add;
                nxt[node] = add;
                if (add == 0) claimed &= ~(std::uint64_t{1} << bit);
              });
              touched[w] = claimed;
            }
          });
    }

    // The new frontier, ascending: each range of bitmap words counts its
    // nodes, writes them at the offset the counts before it fix and clears
    // its words for the next level; then the calling thread visits them in
    // order and rotates.
    kept.assign(ChunkCount(words, msbfs_detail::kLevelChunkWords), 0);
    msbfs_detail::ForEachLevelChunk(
        words, msbfs_detail::kLevelChunkWords,
        [&](auto, std::size_t chunk, std::size_t begin, std::size_t end) {
          std::size_t count = 0;
          for (std::size_t w = begin; w < end; ++w) {
            count += static_cast<std::size_t>(std::popcount(touched[w]));
          }
          kept[chunk] = count;
        });
    std::size_t frontier = 0;
    for (std::size_t& offset : kept) {
      frontier += std::exchange(offset, frontier);
    }
    spare->resize(frontier);
    msbfs_detail::ForEachLevelChunk(
        words, msbfs_detail::kLevelChunkWords,
        [&](auto, std::size_t chunk, std::size_t begin, std::size_t end) {
          NodeId* out = spare->data() + kept[chunk];
          for (std::size_t w = begin; w < end; ++w) {
            const std::uint64_t marks = touched[w];
            if (marks == 0) continue;
            touched[w] = 0;
            msbfs_detail::ForEachLane(marks, [&](std::size_t bit) {
              *out++ = static_cast<NodeId>(w * 64 + bit);
            });
          }
        });
    for (const NodeId node : *spare) visit(level, node, nxt[node]);
    std::swap(cur, nxt);
    std::swap(active, spare);
  }
  ws.End();
}

// Distances (in links) from every source to every node, batching the sources
// through MultiSourceBfs in 64-lane blocks. Row-major: the returned vector
// holds sources.size() * g.NodeCount() entries and
// result[i * NodeCount() + node] is the distance from sources[i] to node,
// kUnreachable where no live path exists. Any source count is accepted;
// each row equals BfsDistances(g, sources[i], ...) exactly.
template <TraversalGraph G>
std::vector<int> MultiSourceDistances(const G& g,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr) {
  const std::size_t nodes = g.NodeCount();
  std::vector<int> dist(sources.size() * nodes, kUnreachable);
  MsBfsScope ws;
  for (std::size_t base = 0; base < sources.size(); base += kMsBfsLanes) {
    const auto block =
        sources.subspan(base, std::min(kMsBfsLanes, sources.size() - base));
    MultiSourceBfs(
        g, block, *ws,
        [&](int level, NodeId node, std::uint64_t bits) {
          msbfs_detail::ForEachLane(bits, [&](std::size_t lane) {
            dist[(base + lane) * nodes + static_cast<std::size_t>(node)] =
                level;
          });
        },
        failures);
  }
  return dist;
}

// Eccentricity of each source restricted to SERVER targets (the distance
// convention of the diameter tables): result[i] is the max distance from
// sources[i] to any reachable server, or kUnreachable for a source that is
// dead under `failures`. One 64-lane batch per block of sources.
template <TraversalGraph G>
std::vector<int> ServerEccentricities(const G& g,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr) {
  std::vector<int> ecc(sources.size(), kUnreachable);
  MsBfsScope ws;
  for (std::size_t base = 0; base < sources.size(); base += kMsBfsLanes) {
    const auto block =
        sources.subspan(base, std::min(kMsBfsLanes, sources.size() - base));
    // Rather than touching per-lane state for every set bit, OR each level's
    // server hits into one word and flush it when the level advances: the
    // last level a lane's bit appears in is its eccentricity.
    int current_level = 0;
    std::uint64_t level_bits = 0;
    const auto flush = [&] {
      msbfs_detail::ForEachLane(level_bits, [&](std::size_t lane) {
        ecc[base + lane] = current_level;
      });
    };
    MultiSourceBfs(
        g, block, *ws,
        [&](int level, NodeId node, std::uint64_t bits) {
          if (!g.IsServer(node)) return;
          if (level != current_level) {
            flush();
            current_level = level;
            level_bits = 0;
          }
          level_bits |= bits;
        },
        failures);
    flush();
  }
  return ecc;
}

// Aggregates of the full server-to-server distance matrix, computed without
// materializing it: the backing kernel for ExactServerPathStats and the
// T1/T2/F-table sweeps. All counters are exact integers accumulated per
// 64-lane block and merged in fixed block order (common/parallel.h), so the
// result is bit-identical at any thread count.
struct AllPairsSweepStats {
  std::int64_t distance_total = 0;  // sum over ordered reachable pairs
  std::uint64_t pairs = 0;          // ordered server pairs reached (src != dst)
  int diameter = 0;                 // max server-to-server distance
  int radius = 0;                   // min over sources of server eccentricity
  bool connected = true;            // every source reached every server
  // pairs_at_distance[d] = ordered pairs at exactly distance d (the exact
  // path-length histogram); index 0 is always 0 — self pairs are excluded.
  std::vector<std::uint64_t> pairs_at_distance;
};

namespace msbfs_detail {

// Shared sweep engine: sources given as (count, source_at(i)). Block i covers
// sources [i*64, ...); blocks are copied into a fixed per-block buffer — the
// same values in the same order the span-based sweep used — and merged in
// ascending block order, so results are bit-identical at any thread count and
// for any source container.
template <TraversalGraph G, typename SourceAt>
AllPairsSweepStats SweepFromSourceFn(const G& g, std::size_t source_count,
                                     SourceAt&& source_at) {
  AllPairsSweepStats stats;
  if (source_count == 0) return stats;
  const std::size_t blocks = (source_count + kMsBfsLanes - 1) / kMsBfsLanes;

  // Everything in a partial is an exact integer, so the fixed block split +
  // ascending merge order make the reduction bit-identical for any thread
  // count — and identical to the per-source sweep it replaced.
  struct Partial {
    std::int64_t total = 0;       // sum of distances over reached pairs
    std::uint64_t reached = 0;    // (source, server) pairs incl. source itself
    std::uint64_t lanes = 0;      // sources processed (to discount self pairs)
    int diameter = 0;
    int radius = std::numeric_limits<int>::max();
    bool connected = true;
    std::vector<std::uint64_t> at_distance;
  };
  const auto sweep_blocks = [&](std::size_t begin, std::size_t end) {
    Partial partial;
    MsBfsScope ws;
    std::array<NodeId, kMsBfsLanes> block{};
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t first = b * kMsBfsLanes;
      const std::size_t lanes =
          std::min(kMsBfsLanes, source_count - first);
      for (std::size_t i = 0; i < lanes; ++i) {
        block[i] = source_at(first + i);
      }
      partial.lanes += lanes;

      // Per-lane eccentricity via the level-word flush trick (see
      // ServerEccentricities). The per-visit work is kept to an OR and a
      // popcount into register accumulators; everything touching memory
      // (histogram bucket, totals, diameter) happens once per level at
      // the flush.
      std::array<int, kMsBfsLanes> ecc{};
      int current_level = 0;
      std::uint64_t level_bits = 0;
      std::uint64_t level_count = 0;
      const auto flush = [&] {
        if (level_count == 0) return;
        ForEachLane(level_bits,
                    [&](std::size_t lane) { ecc[lane] = current_level; });
        const auto d = static_cast<std::size_t>(current_level);
        if (partial.at_distance.size() <= d) {
          partial.at_distance.resize(d + 1, 0);
        }
        partial.at_distance[d] += level_count;
        partial.total += static_cast<std::int64_t>(current_level) *
                         static_cast<std::int64_t>(level_count);
        partial.reached += level_count;
        partial.diameter = std::max(partial.diameter, current_level);
      };
      MultiSourceBfs(g, std::span<const NodeId>{block.data(), lanes}, *ws,
                     [&](int level, NodeId node, std::uint64_t bits) {
                       if (!g.IsServer(node)) return;
                       if (level != current_level) {
                         flush();
                         current_level = level;
                         level_bits = 0;
                         level_count = 0;
                       }
                       level_bits |= bits;
                       level_count += static_cast<std::uint64_t>(
                           std::popcount(bits));
                     });
      flush();
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        partial.radius = std::min(partial.radius, ecc[lane]);
      }
      // Connectivity: every lane of this block must have reached every
      // server — one word compare per server.
      const std::uint64_t mask = MsBfsLaneMask(lanes);
      for (std::size_t i = 0; i < g.ServerCount(); ++i) {
        if ((ws->SeenWord(g.ServerIdAt(i)) & mask) != mask) {
          partial.connected = false;
          break;
        }
      }
    }
    return partial;
  };
  const auto merge = [](Partial acc, Partial partial) {
    acc.total += partial.total;
    acc.reached += partial.reached;
    acc.lanes += partial.lanes;
    acc.diameter = std::max(acc.diameter, partial.diameter);
    acc.radius = std::min(acc.radius, partial.radius);
    acc.connected = acc.connected && partial.connected;
    if (acc.at_distance.size() < partial.at_distance.size()) {
      acc.at_distance.resize(partial.at_distance.size(), 0);
    }
    for (std::size_t d = 0; d < partial.at_distance.size(); ++d) {
      acc.at_distance[d] += partial.at_distance[d];
    }
    return acc;
  };
  // A single block runs here, on the calling thread, so its levels reach the
  // pool; as the one chunk of a ParallelMapReduce it would mark the thread
  // nested and run them inline. The choice keys on the block count alone, so
  // the region and chunk counters stay invariant across thread counts.
  Partial merged =
      blocks == 1 ? sweep_blocks(0, 1)
                  : ParallelMapReduce(blocks, /*chunk=*/1, Partial{},
                                      sweep_blocks, merge);

  stats.distance_total = merged.total;
  stats.pairs = merged.reached - merged.lanes;  // drop the distance-0 selves
  stats.diameter = merged.diameter;
  stats.radius =
      merged.radius == std::numeric_limits<int>::max() ? 0 : merged.radius;
  stats.connected = merged.connected;
  stats.pairs_at_distance = std::move(merged.at_distance);
  if (!stats.pairs_at_distance.empty()) {
    // Level 0 counted each source reaching itself; the histogram is over
    // ordered pairs, where distance 0 cannot occur.
    stats.pairs_at_distance[0] -= merged.lanes;
  }
  return stats;
}

}  // namespace msbfs_detail

// One MS-BFS block per 64 servers, parallelized across blocks.
template <TraversalGraph G>
AllPairsSweepStats AllPairsDistanceSweep(const G& g) {
  return msbfs_detail::SweepFromSourceFn(
      g, g.ServerCount(), [&g](std::size_t i) { return g.ServerIdAt(i); });
}

// The same aggregates restricted to an explicit source list (each entry one
// lane, duplicates allowed): `pairs`/`distance_total`/`radius` are over the
// given sources only, `connected` means every source reached every server.
// Backs the sampled sweeps and — with one source per role — the
// symmetry-reduced exact stats (metrics/path_metrics.h).
template <TraversalGraph G>
AllPairsSweepStats DistanceSweepFromSources(const G& g,
                                            std::span<const NodeId> sources) {
  return msbfs_detail::SweepFromSourceFn(
      g, sources.size(), [sources](std::size_t i) { return sources[i]; });
}

// --- CsrView overloads (the exact-match signatures existing callers use) ---

std::vector<int> MultiSourceDistances(const CsrView& csr,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr);

std::vector<int> ServerEccentricities(const CsrView& csr,
                                      std::span<const NodeId> sources,
                                      const FailureSet* failures = nullptr);

AllPairsSweepStats AllPairsDistanceSweep(const CsrView& csr);

}  // namespace dcn::graph
