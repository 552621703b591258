// Deterministic thread-pool parallelism for the embarrassingly parallel hot
// loops (all-pairs BFS, max-flow pair sampling, Monte Carlo fault trials,
// bulk route construction).
//
// Design rules that make parallel results reproducible:
//  * Work is split into FIXED chunks whose boundaries depend only on (n,
//    chunk) — never on the thread count. Threads claim chunks dynamically,
//    but what each chunk computes is fully determined by its index.
//  * Reductions merge per-chunk partials in ascending chunk order on the
//    calling thread, so floating-point results are bit-identical for ANY
//    thread count, including the serial path (`DCN_THREADS=1`), which runs
//    the very same chunks in the very same merge order inline.
//  * Randomized tasks derive an independent stream per chunk/index via
//    `Rng::Fork(index)` instead of sharing one sequential stream.
//
// Thread count resolution: SetThreadCount() (tests, CLI --threads) wins,
// else the DCN_THREADS environment variable, else hardware_concurrency.
// ConfigureThreads() resolves --threads and DCN_THREADS once at start-up.
// A count of 1 bypasses the pool entirely. Nested ParallelFor calls from
// inside a worker run serially inline (safe, never deadlocks).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace dcn {

class CliArgs;

// Largest count --threads or DCN_THREADS may ask for; a larger value is
// rejected when parsed instead of being handed to the pool as OS threads.
inline constexpr int kMaxThreads = 1024;

// Effective worker count for the next parallel region (always >= 1).
int ThreadCount();

// Overrides the thread count; <= 0 restores the automatic resolution
// (DCN_THREADS env var, else hardware_concurrency). Must not be called from
// inside a parallel region. The pool is resized lazily on next use.
void SetThreadCount(int threads);

// Applies a `--threads=N` flag if present (0 or absent = automatic), else a
// DCN_THREADS value. Both are parsed and validated here: an out-of-range
// --threads or a malformed DCN_THREADS (even one --threads overrides) throws
// InvalidArgument.
void ConfigureThreads(const CliArgs& args);

// True while the calling thread is executing inside a parallel region;
// exposed so callers can assert against unintended nesting.
bool InParallelRegion();

// True when a region of `num_chunks` chunks started from this thread right
// now would go to the pool, so its chunks may run concurrently; false when
// it would run them inline, in order: one chunk, one thread, or a caller
// already inside a region. Lets chunks that share words choose atomic
// updates only when they need them.
bool RegionRunsOnPool(std::size_t num_chunks);

namespace detail {
// Runs fn(chunk_index) for every chunk in [0, num_chunks); chunks are claimed
// dynamically by the pool workers plus the calling thread. Blocks until all
// chunks completed; rethrows the first exception thrown by fn (remaining
// chunks are skipped on failure). Serial (in order) when ThreadCount() == 1,
// num_chunks <= 1, or the caller is already inside a parallel region.
void RunChunks(std::size_t num_chunks, const std::function<void(std::size_t)>& fn);
}  // namespace detail

// Sense-reversing barrier for SPMD teams (see RunTeam). Spin-then-yield so it
// stays live when the team is oversubscribed (more members than cores — the
// normal case under TSan and on small CI machines). `Arrive` provides
// release/acquire ordering: writes made by any member before its Arrive are
// visible to every member after the matching Arrive returns.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties);

  // Blocks until all `parties` members have arrived at this phase. Throws
  // FailedPrecondition if the barrier was aborted (and keeps throwing on
  // every later call, so an abort tears the whole team down).
  void Arrive();

  // Marks the barrier aborted and releases members blocked in Arrive. Called
  // by a member whose body threw, so the survivors cannot deadlock waiting
  // for it; they observe the abort at their next Arrive and unwind too.
  void Abort();

  int Parties() const { return parties_; }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<bool> aborted_{false};
};

// Size of the team RunTeam would launch right now: ThreadCount(), or 1 when
// already inside a parallel region (nested teams run inline, like nested
// ParallelFor). Call this once, build per-member state, then pass the same
// value to RunTeam.
int TeamSize();

// SPMD region: runs body(member, barrier) for member = 0..team-1, each member
// on its own thread, sharing one SpinBarrier so members can synchronize in
// lockstep phases. This differs from ParallelFor chunks, which must be
// independent; team members may communicate through barrier-separated shared
// state. `team` must equal a value TeamSize() returned with the thread
// configuration unchanged since (each member needs a dedicated thread or the
// barrier deadlocks). A team of 1 runs inline; a member that throws aborts
// the barrier so the rest of the team unwinds, and the first exception is
// rethrown on the calling thread.
void RunTeam(int team, const std::function<void(int, SpinBarrier&)>& body);

// Number of fixed chunks covering [0, n) at the given chunk size.
inline std::size_t ChunkCount(std::size_t n, std::size_t chunk) {
  DCN_REQUIRE(chunk > 0, "ParallelFor chunk size must be positive");
  return n == 0 ? 0 : (n + chunk - 1) / chunk;
}

// Parallel loop over [0, n) in fixed chunks of `chunk` indices:
// fn(begin, end) for each half-open sub-range. fn must only touch state
// disjoint across chunks (e.g. distinct slots of a pre-sized vector).
inline void ParallelFor(std::size_t n, std::size_t chunk,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t chunks = ChunkCount(n, chunk);
  detail::RunChunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    fn(begin, std::min(n, begin + chunk));
  });
}

// Parallel map-reduce over [0, n): `map(begin, end)` produces one partial per
// fixed chunk; partials are folded on the calling thread in ascending chunk
// order via `acc = reduce(std::move(acc), std::move(partial))`. The fixed
// chunking + fixed merge order is what makes floating-point reductions
// bit-identical across thread counts. The partial type may differ from the
// accumulator type.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelMapReduce(std::size_t n, std::size_t chunk, T init, MapFn map,
                    ReduceFn reduce) {
  using Partial = std::decay_t<decltype(map(std::size_t{}, std::size_t{}))>;
  const std::size_t chunks = ChunkCount(n, chunk);
  if (chunks == 0) return init;
  std::vector<std::optional<Partial>> partials(chunks);
  detail::RunChunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    partials[c].emplace(map(begin, std::min(n, begin + chunk)));
  });
  T acc = std::move(init);
  for (std::optional<Partial>& partial : partials) {
    acc = reduce(std::move(acc), std::move(*partial));
  }
  return acc;
}

}  // namespace dcn
