// Fault-tolerant one-to-one routing for the cubes: ABCCC and BCube, which is
// the m = 1 cube ABCCC(n, k, k+2) (every level agent is role 0, no crossbars).
//
// Server-centric designs tolerate failures in software: the digit-fixing
// walk is repaired on the fly. Three escalating tactics, each ablatable for
// the F7 experiment:
//   1. Postpone: if fixing level l is blocked (dead agent, switch, or link),
//      try another remaining level first — a different permutation suffix.
//   2. Plane detour: fix level l through an intermediate digit value v
//      (v != current, v != target), routing around the dead plane; l is
//      corrected again later from a different row.
//   3. BFS fallback: when greedy repair is exhausted, recompute the whole
//      route as a shortest path on the surviving graph from the source
//      (models a link-state repair installing a fresh path).
// Returns an empty route only when the destination is genuinely unreachable
// (or fallback is disabled and greedy failed).
#pragma once

#include "common/rng.h"
#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

namespace dcn::routing {

struct FaultRoutingOptions {
  bool allow_postpone = true;
  bool allow_plane_detour = true;
  bool allow_bfs_fallback = true;
};

struct FaultRoutingStats {
  int digit_fixes = 0;     // successful direct corrections
  int postponements = 0;   // times the preferred level was blocked
  int plane_detours = 0;   // intermediate-value corrections
  bool used_fallback = false;
};

// The greedy phase gives up after 8*(k+1) + 16 links.
Route AbcccFaultTolerantRoute(const topo::Abccc& net, graph::NodeId src,
                              graph::NodeId dst,
                              const graph::FailureSet& failures, Rng& rng,
                              const FaultRoutingOptions& options = {},
                              FaultRoutingStats* stats = nullptr);

// The same walk on BCube (BSR-style digit fixing, Guo et al.); its greedy
// phase gives up after 6*(k+1) + 8 links.
Route BcubeFaultTolerantRoute(const topo::Bcube& net, graph::NodeId src,
                              graph::NodeId dst,
                              const graph::FailureSet& failures, Rng& rng,
                              const FaultRoutingOptions& options = {},
                              FaultRoutingStats* stats = nullptr);

// The last resort every repair router shares: a shortest path from `src` on
// the surviving graph (what a link-state repair would install), setting
// stats->used_fallback. Empty when `options.allow_bfs_fallback` is off or
// `dst` is unreachable. The greedy prefix is abandoned rather than extended
// so the returned route stays link-simple.
Route BfsFallbackRoute(const graph::Graph& graph, graph::NodeId src,
                       graph::NodeId dst, const graph::FailureSet& failures,
                       const FaultRoutingOptions& options,
                       FaultRoutingStats* stats);

}  // namespace dcn::routing
