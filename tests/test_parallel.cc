#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/error.h"

namespace dcn {
namespace {

// Restores the ambient thread configuration after each test so the suites
// stay order-independent.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetThreadCount(0);
    unsetenv("DCN_THREADS");
  }
};

TEST_F(ParallelTest, EmptyRangeNeverInvokes) {
  SetThreadCount(4);
  std::atomic<int> calls{0};
  ParallelFor(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  const int reduced = ParallelMapReduce(
      0, 8, 42, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(reduced, 42);  // init passes through untouched
}

TEST_F(ParallelTest, RangeSmallerThanChunkIsOneChunk) {
  SetThreadCount(4);
  std::atomic<int> calls{0};
  std::vector<int> seen(3, 0);
  ParallelFor(3, 100, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    for (std::size_t i = begin; i < end; ++i) seen[i] = 1;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 3);
}

TEST_F(ParallelTest, EveryIndexCoveredExactlyOnce) {
  SetThreadCount(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, 7, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ZeroChunkSizeThrows) {
  EXPECT_THROW(ParallelFor(10, 0, [](std::size_t, std::size_t) {}),
               InvalidArgument);
}

TEST_F(ParallelTest, ExceptionsPropagateSerialAndParallel) {
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    EXPECT_THROW(
        ParallelFor(100, 1,
                    [](std::size_t begin, std::size_t) {
                      if (begin == 37) throw std::runtime_error{"chunk failed"};
                    }),
        std::runtime_error)
        << "threads=" << threads;
    // The pool survives a failed region and runs the next one.
    std::atomic<int> calls{0};
    ParallelFor(10, 1, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 10);
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInlineAndIsSafe) {
  SetThreadCount(4);
  EXPECT_FALSE(InParallelRegion());
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(8, 1, [&](std::size_t outer, std::size_t) {
    EXPECT_TRUE(InParallelRegion());
    // Inner region must not deadlock on the same pool; it runs serially.
    ParallelFor(8, 1, [&](std::size_t inner, std::size_t) {
      ++hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
  EXPECT_FALSE(InParallelRegion());
}

TEST_F(ParallelTest, SingleThreadBypassesPoolAndRunsInOrder) {
  SetThreadCount(1);
  // With one thread the chunks must execute ascending on the calling thread.
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  ParallelFor(20, 3, [&](std::size_t begin, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(begin);  // no synchronization needed: single thread
  });
  ASSERT_EQ(order.size(), 7u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST_F(ParallelTest, EnvVariableControlsAutomaticCount) {
  SetThreadCount(0);
  setenv("DCN_THREADS", "3", 1);
  EXPECT_EQ(ThreadCount(), 3);
  // An explicit override beats the environment.
  SetThreadCount(5);
  EXPECT_EQ(ThreadCount(), 5);
  SetThreadCount(0);
  EXPECT_EQ(ThreadCount(), 3);
  // The whole value must be one integer in [1, kMaxThreads], parsed like
  // CliArgs::GetInt: no sign, whitespace or trailing characters, and nothing
  // that would truncate when narrowed to int.
  for (const char* bad : {"zero", "0", "-2", "4x", " 4", "4 ", "+4",
                          "4294967297", "99999999999999999999", "1025"}) {
    SCOPED_TRACE(bad);
    setenv("DCN_THREADS", bad, 1);
    EXPECT_THROW(ThreadCount(), InvalidArgument);
  }
  // The cap itself parses. Only parsed: no parallel region runs here, so the
  // pool is never asked for that many threads.
  setenv("DCN_THREADS", std::to_string(kMaxThreads).c_str(), 1);
  EXPECT_EQ(ThreadCount(), kMaxThreads);
}

TEST_F(ParallelTest, ConfigureThreadsReadsCliFlag) {
  const char* argv[] = {"prog", "--threads=2"};
  ConfigureThreads(CliArgs{2, argv});
  EXPECT_EQ(ThreadCount(), 2);
  const char* reset[] = {"prog", "--threads=0"};
  setenv("DCN_THREADS", "7", 1);
  ConfigureThreads(CliArgs{2, reset});
  EXPECT_EQ(ThreadCount(), 7);  // 0 = automatic, falls back to the env var
  for (const char* bad : {"--threads=-1", "--threads=+4", "--threads=1025",
                          "--threads=4294967297"}) {
    SCOPED_TRACE(bad);
    const char* bad_argv[] = {"prog", bad};
    EXPECT_THROW(ConfigureThreads(CliArgs{2, bad_argv}), InvalidArgument);
  }
  // The cap parses (and is never started: no parallel region runs here).
  const std::string cap = "--threads=" + std::to_string(kMaxThreads);
  const char* cap_argv[] = {"prog", cap.c_str()};
  ConfigureThreads(CliArgs{2, cap_argv});
  EXPECT_EQ(ThreadCount(), kMaxThreads);
  // DCN_THREADS is resolved by ConfigureThreads itself: a malformed value
  // fails there, at start-up, even when --threads would override it.
  setenv("DCN_THREADS", "4x", 1);
  EXPECT_THROW(ConfigureThreads(CliArgs{2, reset}), InvalidArgument);
  EXPECT_THROW(ConfigureThreads(CliArgs{2, argv}), InvalidArgument);
  // Resolved once: after ConfigureThreads the count no longer reads the env.
  setenv("DCN_THREADS", "6", 1);
  ConfigureThreads(CliArgs{2, reset});
  setenv("DCN_THREADS", "4x", 1);
  EXPECT_EQ(ThreadCount(), 6);
}

TEST_F(ParallelTest, SetThreadCountRejectedInsideRegion) {
  SetThreadCount(2);
  EXPECT_THROW(
      ParallelFor(4, 1, [](std::size_t, std::size_t) { SetThreadCount(3); }),
      InvalidArgument);
}

TEST_F(ParallelTest, MapReduceMergesPartialsInChunkOrder) {
  // Each chunk maps to its own index; the fold must observe chunks ascending
  // regardless of which thread finished first — that order is what makes
  // floating-point reductions reproducible.
  for (int threads : {1, 2, 7}) {
    SetThreadCount(threads);
    const std::vector<std::size_t> order = ParallelMapReduce(
        100, 9, std::vector<std::size_t>{},
        [](std::size_t begin, std::size_t) { return begin / 9; },
        [](std::vector<std::size_t> acc, std::size_t chunk) {
          acc.push_back(chunk);
          return acc;
        });
    ASSERT_EQ(order.size(), 12u) << "threads=" << threads;
    for (std::size_t c = 0; c < order.size(); ++c) {
      ASSERT_EQ(order[c], c) << "threads=" << threads;
    }
  }
}

TEST_F(ParallelTest, TeamSizeMatchesThreadCountAndNestsToOne) {
  SetThreadCount(5);
  EXPECT_EQ(TeamSize(), 5);
  ParallelFor(1, 1, [](std::size_t, std::size_t) {
    EXPECT_EQ(TeamSize(), 1);  // nested: members would share one thread
  });
  SetThreadCount(1);
  EXPECT_EQ(TeamSize(), 1);
}

TEST_F(ParallelTest, RunTeamGivesEveryMemberItsOwnThreadInLockstep) {
  for (int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    const int team = TeamSize();
    ASSERT_EQ(team, threads);
    // Phase 1: every member records its slot; phase 2 (barrier-separated):
    // every member checks it can read all the other members' phase-1 writes.
    std::vector<int> slots(static_cast<std::size_t>(team), -1);
    std::atomic<int> failures{0};
    RunTeam(team, [&](int me, SpinBarrier& barrier) {
      EXPECT_EQ(barrier.Parties(), team);
      slots[static_cast<std::size_t>(me)] = me;
      barrier.Arrive();
      for (int k = 0; k < team; ++k) {
        if (slots[static_cast<std::size_t>(k)] != k) ++failures;
      }
      barrier.Arrive();
    });
    EXPECT_EQ(failures.load(), 0) << "threads=" << threads;
  }
}

TEST_F(ParallelTest, RunTeamBarrierPhasesAlternateWithoutLoss) {
  // Many rounds of write-barrier-read: catches a barrier that lets a fast
  // member lap a slow one (sense reversal) or drops a wakeup when the team
  // is oversubscribed on few cores.
  SetThreadCount(4);
  const int team = TeamSize();
  constexpr int kRounds = 200;
  std::vector<std::uint64_t> counters(static_cast<std::size_t>(team), 0);
  std::atomic<int> failures{0};
  RunTeam(team, [&](int me, SpinBarrier& barrier) {
    for (int round = 0; round < kRounds; ++round) {
      ++counters[static_cast<std::size_t>(me)];
      barrier.Arrive();
      for (int k = 0; k < team; ++k) {
        if (counters[static_cast<std::size_t>(k)] !=
            static_cast<std::uint64_t>(round + 1)) {
          ++failures;
        }
      }
      barrier.Arrive();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ParallelTest, RunTeamMemberFailureAbortsTheWholeTeam) {
  SetThreadCount(4);
  const int team = TeamSize();
  ASSERT_GE(team, 2);
  // Member 2 throws before the barrier; the rest must unwind via the abort
  // instead of deadlocking in Arrive, and the pool must survive.
  EXPECT_THROW(RunTeam(team,
                       [&](int me, SpinBarrier& barrier) {
                         if (me == 2) throw std::runtime_error{"member failed"};
                         barrier.Arrive();
                       }),
               std::exception);
  std::atomic<int> calls{0};
  RunTeam(team, [&](int, SpinBarrier& barrier) {
    ++calls;
    barrier.Arrive();
  });
  EXPECT_EQ(calls.load(), team);
}

TEST_F(ParallelTest, RunTeamRejectsOversizedTeams) {
  SetThreadCount(2);
  EXPECT_THROW(RunTeam(3, [](int, SpinBarrier&) {}), InvalidArgument);
}

TEST_F(ParallelTest, MapReduceComputesTheSameSumForAnyThreadCount) {
  constexpr std::size_t kN = 10000;
  auto sum_squares = [] {
    return ParallelMapReduce(
        kN, 13, std::uint64_t{0},
        [](std::size_t begin, std::size_t end) {
          std::uint64_t s = 0;
          for (std::size_t i = begin; i < end; ++i) s += i * i;
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  };
  SetThreadCount(1);
  const std::uint64_t serial = sum_squares();
  EXPECT_EQ(serial, (kN - 1) * kN * (2 * kN - 1) / 6);
  for (int threads : {2, 4, 7}) {
    SetThreadCount(threads);
    EXPECT_EQ(sum_squares(), serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dcn
