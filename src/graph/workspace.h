// Reusable per-thread traversal state.
//
// Repeated graph traversals (all-pairs BFS sweeps, Monte Carlo fault trials,
// per-pair min cuts, bulk route flattening) used to pay two hidden costs per
// call: a fresh O(V) heap allocation for visited/distance arrays and an O(V)
// re-initialization. The workspaces here amortize both: buffers grow to the
// largest graph seen and are then reused, and "clearing" is an epoch bump —
// O(1) — with per-entry stamps deciding whether a slot is current. Steady
// state is allocation-free, so traversal cost is O(frontier), not O(V).
//
// Workspaces are handed out per thread through the Scope RAII types below,
// which borrow from a thread-local freelist: nested borrows (a BFS wrapper
// invoked from inside a metric that already holds a workspace) receive
// distinct instances, and the pool's persistent workers (common/parallel.h)
// keep their buffers warm across parallel regions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace dcn::graph {

// Unreachable marker for BFS distances, in links. (Declared here rather than
// in bfs.h so workspace accessors can return it; bfs.h re-exports it by
// inclusion.)
inline constexpr int kUnreachable = -1;

// Epoch-stamped boolean marks over a dense id range [0, size): Begin() is an
// O(1) epoch bump; O(size) work happens only on growth or on the (once per
// 2^32 traversals) stamp wraparound.
class EpochMarks {
 public:
  void Begin(std::size_t size) {
    if (stamp_.size() < size) stamp_.resize(size, 0);
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  bool Marked(std::int32_t id) const {
    return stamp_[static_cast<std::size_t>(id)] == epoch_;
  }
  // Marks `id`; true if it was unmarked before this call.
  bool Mark(std::int32_t id) {
    std::uint32_t& stamp = stamp_[static_cast<std::size_t>(id)];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

// BFS state (visited marks, distances, parents, queue) valid for the nodes
// settled since the last Begin(). Distances/parents of unvisited nodes read
// as kUnreachable / kInvalidNode without any O(V) reset.
//
// The epoch stamp and the distance share one 64-bit word per node, so the
// visited check, the distance read, and a parent-less settle each touch a
// single array slot — the per-node memory traffic that dominates a BFS sweep.
class TraversalWorkspace {
 public:
  void Begin(std::size_t nodes) {
    if (state_.size() < nodes) {
      state_.resize(nodes, 0);
      parent_.resize(nodes);
    }
    if (++epoch_ == 0) {
      std::fill(state_.begin(), state_.end(), 0);
      epoch_ = 1;
    }
    queue_.clear();
  }

  bool Visited(NodeId node) const {
    return static_cast<std::uint32_t>(state_[static_cast<std::size_t>(node)] >>
                                      32) == epoch_;
  }
  // Records node as visited at distance `dist`, without a parent: the choice
  // for distance-only sweeps — it writes one word per settled node, and
  // Parent() after such a traversal is meaningless. Returns false (and does
  // not overwrite) if the node was already settled this epoch.
  bool Settle(NodeId node, int dist) {
    std::uint64_t& slot = state_[static_cast<std::size_t>(node)];
    if (static_cast<std::uint32_t>(slot >> 32) == epoch_) return false;
    slot = (static_cast<std::uint64_t>(epoch_) << 32) |
           static_cast<std::uint32_t>(dist);
    return true;
  }
  // As above but also records `parent`, for traversals that reconstruct
  // paths.
  bool Settle(NodeId node, int dist, NodeId parent) {
    if (!Settle(node, dist)) return false;
    parent_[static_cast<std::size_t>(node)] = parent;
    return true;
  }

  int Dist(NodeId node) const {
    const std::uint64_t slot = state_[static_cast<std::size_t>(node)];
    return static_cast<std::uint32_t>(slot >> 32) == epoch_
               ? static_cast<int>(static_cast<std::uint32_t>(slot))
               : kUnreachable;
  }
  // Dist without the epoch check, for nodes the caller knows are settled this
  // epoch (e.g. anything taken from VisitOrder()). Garbage for others.
  int DistSettled(NodeId node) const {
    return static_cast<int>(
        static_cast<std::uint32_t>(state_[static_cast<std::size_t>(node)]));
  }
  NodeId Parent(NodeId node) const {
    return Visited(node) ? parent_[static_cast<std::size_t>(node)]
                         : kInvalidNode;
  }

  // The BFS queue. Traversals only ever push (the head is an index), so after
  // a sweep this doubles as the visit order; its size is the reached count.
  std::vector<NodeId>& Frontier() { return queue_; }
  std::span<const NodeId> VisitOrder() const { return queue_; }

 private:
  std::vector<std::uint64_t> state_;  // (epoch << 32) | distance, per node
  std::vector<NodeId> parent_;
  std::vector<NodeId> queue_;
  std::uint32_t epoch_ = 0;
};

// Word-packed frontier state for the 64-lane multi-source BFS
// (graph/msbfs.h): one `uint64_t` per node in each of the seen / current /
// next bitmaps, bit j belonging to source lane j, plus a touched bitmap with
// one bit per node that collects each level's new frontier. Unlike
// TraversalWorkspace, slots are NOT epoch-stamped: Begin() zeroes the seen
// words, O(V), which costs less than carrying a stamp word through the
// per-level inner loops would. A run that completes leaves the frontier
// words and the touched bitmap all zero, so Begin() re-zeroes those only
// after growth or a run that was cut short (a throwing visit callback).
// Large arrays are zeroed in fixed chunks on the pool, which also spreads the
// first touch of freshly grown storage over the team. Buffers grow to the
// largest graph seen and are then reused — steady state allocates nothing.
class MsBfsWorkspace {
 public:
  void Begin(std::size_t nodes);
  // Called by the kernel when a run completes, its frontier words and
  // touched bitmap zero again.
  void End() { dirty_ = false; }

  // Bit j set iff source lane j of the last run reached `node`. Valid after
  // MultiSourceBfs returns; this is the reachability readout the resilience
  // metrics probe.
  std::uint64_t SeenWord(NodeId node) const {
    return seen_[static_cast<std::size_t>(node)];
  }

  // Raw arrays for the kernel in graph/msbfs.h; sized by the last Begin().
  std::uint64_t* Seen() { return seen_.get(); }
  std::uint64_t* Front() { return front_.get(); }
  std::uint64_t* Next() { return next_.get(); }
  // Bit (node % 64) of word node / 64 marks a node the level being expanded
  // touched; all zero between levels.
  std::uint64_t* Touched() { return touched_.data(); }
  // Node ids whose Front() word is non-zero, ascending, maintained level by
  // level by the kernel (doubles as its top-down scatter list). Spare() is
  // the next level's list under construction (the two are swapped each
  // level); Unfinished() is the shrinking still-missing-some-lane list the
  // bottom-up gather iterates; ChunkCounts() holds per-chunk counts or
  // offsets for the kernel's in-order compactions.
  std::vector<NodeId>& Active() { return active_; }
  std::vector<NodeId>& Spare() { return spare_; }
  std::vector<NodeId>& Unfinished() { return unfinished_; }
  std::vector<std::size_t>& ChunkCounts() { return chunk_counts_; }

 private:
  std::size_t capacity_ = 0;  // nodes the three word arrays hold
  std::unique_ptr<std::uint64_t[]> seen_;
  std::unique_ptr<std::uint64_t[]> front_;
  std::unique_ptr<std::uint64_t[]> next_;
  std::vector<std::uint64_t> touched_;
  std::vector<NodeId> active_;
  std::vector<NodeId> spare_;
  std::vector<NodeId> unfinished_;
  std::vector<std::size_t> chunk_counts_;
  bool dirty_ = false;
};

// Scratch arrays for the unit-capacity Dinic in graph/paths.cc: a flat arc
// array (CSR layout) plus level/iterator/queue state. Rebuilt (overwritten,
// not reallocated) per solve; capacity persists across solves.
struct FlowWorkspace {
  std::vector<std::int32_t> offset;  // node -> first arc (NodeCount()+1)
  std::vector<std::int32_t> cursor;  // per-node fill cursor during build
  std::vector<std::int32_t> to;      // arc target node
  std::vector<std::int32_t> rev;     // global index of the twin arc
  std::vector<std::int8_t> cap;      // residual capacity, 0 or 1
  std::vector<std::int8_t> flow;     // net flow pushed (path extraction)
  std::vector<int> level;            // Dinic level graph
  std::vector<std::int32_t> iter;    // per-node arc iterator in Augment
  std::vector<NodeId> queue;         // level-BFS queue
  // Batched-solve state (graph::EdgeConnectivityBatch): pristine capacities
  // snapshotted after the arc build, restored by memcpy per query instead of
  // rebuilding the arc arrays; and the cached first-phase level graph of the
  // current source, shared by consecutive queries from that source.
  std::vector<std::int8_t> cap0;
  std::vector<int> level_first;
};

// RAII borrow of a TraversalWorkspace from the calling thread's freelist.
// Scopes must nest (stack discipline), which the RAII form guarantees.
class TraversalScope {
 public:
  TraversalScope();
  ~TraversalScope();
  TraversalScope(const TraversalScope&) = delete;
  TraversalScope& operator=(const TraversalScope&) = delete;

  TraversalWorkspace& operator*() const { return *ws_; }
  TraversalWorkspace* operator->() const { return ws_; }

 private:
  TraversalWorkspace* ws_;
};

// RAII borrow of a FlowWorkspace (same freelist discipline).
class FlowScope {
 public:
  FlowScope();
  ~FlowScope();
  FlowScope(const FlowScope&) = delete;
  FlowScope& operator=(const FlowScope&) = delete;

  FlowWorkspace& operator*() const { return *ws_; }
  FlowWorkspace* operator->() const { return ws_; }

 private:
  FlowWorkspace* ws_;
};

// RAII borrow of an MsBfsWorkspace (same freelist discipline).
class MsBfsScope {
 public:
  MsBfsScope();
  ~MsBfsScope();
  MsBfsScope(const MsBfsScope&) = delete;
  MsBfsScope& operator=(const MsBfsScope&) = delete;

  MsBfsWorkspace& operator*() const { return *ws_; }
  MsBfsWorkspace* operator->() const { return ws_; }

 private:
  MsBfsWorkspace* ws_;
};

}  // namespace dcn::graph
