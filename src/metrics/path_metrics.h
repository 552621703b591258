// Diameter, average path length, and routing stretch.
//
// All distances are in links between *servers* (switch relays count toward
// length but switches are never endpoints), matching the papers' metric.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "topology/implicit.h"
#include "topology/topology.h"

namespace dcn::metrics {

struct ExactPathStats {
  int diameter = 0;                 // max server-to-server distance
  int radius = 0;                   // min over servers of server eccentricity
  double average = 0.0;             // mean over all ordered server pairs
  std::uint64_t pairs = 0;          // ordered pairs counted
  bool connected = true;            // false if any pair was unreachable
  // pairs_at_distance[d] = ordered server pairs at exactly distance d
  // (index 0 is always 0: a pair has distinct endpoints).
  std::vector<std::uint64_t> pairs_at_distance;
};

// Exact diameter, radius, average shortest server-to-server path length, and
// the full distance histogram, via the bit-parallel multi-source BFS sweep
// (graph/msbfs.h): 64 sources per pass, so the whole sweep costs
// O(S/64 * (V + E)) word operations instead of S full traversals. Source
// blocks run across the DCN_THREADS pool (common/parallel.h); every count is
// an exact integer, so results are bit-identical for any thread count.
ExactPathStats ExactServerPathStats(const topo::Topology& net);

// Exact path stats of an implicit cube (no adjacency arrays are ever built),
// from role symmetry: translating every digit of a row address by a fixed
// offset is an automorphism of the cube that acts transitively on rows, so
// the multiset of distances out of a server depends only on its role j.
// Sweeping the m = RowLength() representatives ⟨0...0; j⟩ and scaling every
// count by RowCount() reproduces the full all-source sweep exactly
// (including the average, computed from the scaled integer totals) in
// O(m/64) BFS passes instead of O(S/64) — the trick that makes exact
// million-server diameters interactive. A full sweep is impractical at the
// sizes implicit cubes exist for, so this is the implicit entry point.
ExactPathStats SymmetryReducedPathStats(const topo::ImplicitCube& net);

struct SampledPathStats {
  IntHistogram shortest;  // BFS lengths of the sampled pairs
  IntHistogram routed;    // native-routing lengths of the same pairs
  // Mean of routed/shortest per pair (1.0 = routing is optimal).
  double mean_stretch = 0.0;
  // Max shortest distance seen from the sampled sources to ANY server — a
  // lower bound on (and for vertex-transitive nets usually equal to) the
  // diameter.
  int diameter_lower_bound = 0;
};

// BFS from `source_samples` random servers; for each source, native routes to
// `pairs_per_source` random distinct destinations. Runs sources in parallel;
// each sample draws from its own rng.Fork(index) stream, so the result is a
// pure function of (net, counts, rng state) — the same for any thread count.
SampledPathStats SamplePathStats(const topo::Topology& net,
                                 std::size_t source_samples,
                                 std::size_t pairs_per_source, Rng& rng);

// Implicit-cube overload. Destinations are drawn before the BFS pass (the
// same position in each per-sample stream, so results stay bit-identical
// with the materialized overload) and only the sampled destinations'
// distances are recorded — O(lanes * pairs) instead of a lane-major
// distance matrix, which at million-server scale is the difference between
// kilobytes and gigabytes.
SampledPathStats SamplePathStats(const topo::ImplicitCube& net,
                                 std::size_t source_samples,
                                 std::size_t pairs_per_source, Rng& rng);

}  // namespace dcn::metrics
