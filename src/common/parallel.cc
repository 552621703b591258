#include "common/parallel.h"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "common/cli.h"
#include "obs/obs.h"

namespace dcn {
namespace {

// Set while a thread (worker or caller) is executing chunks; makes nested
// parallel regions run serially inline instead of deadlocking on the pool.
thread_local bool tl_in_parallel = false;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// DCN_THREADS, or 0 when unset or empty. The whole value must be one
// integer in [1, kMaxThreads] under CliArgs::GetInt's std::from_chars rules:
// no sign, no whitespace, no trailing characters, nothing out of int range.
int EnvThreads() {
  const char* env = std::getenv("DCN_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const std::string_view text{env};
  int parsed = 0;
  const auto [stop, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc{} || stop != text.data() + text.size() || parsed < 1 ||
      parsed > kMaxThreads) {
    throw InvalidArgument{"DCN_THREADS must be an integer in [1, " +
                          std::to_string(kMaxThreads) + "], got: '" +
                          std::string{text} + "'"};
  }
  return parsed;
}

std::atomic<int> g_thread_override{0};  // 0 = automatic (env, then hardware)

// The one rule for where a region runs: on the pool, or inline in chunk
// order when it has one chunk, the team has one thread, or the caller is
// already inside a region.
bool OnPool(std::size_t num_chunks, int threads) {
  return num_chunks > 1 && threads > 1 && !tl_in_parallel;
}

// One parallel region in flight. Workers claim chunk indices from `next`;
// what a chunk computes depends only on its index, so the dynamic claim
// order never affects results.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t num_chunks = 0;
  std::uint64_t generation = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // first failure only, guarded by error_mutex
  std::mutex error_mutex;
  int executing = 0;  // workers currently inside Execute, guarded by pool mutex
};

// Claims and runs chunks until the job is drained (or failed). Called by
// workers and by the submitting thread alike. The per-chunk span draws this
// thread's pool lane in trace exports — the claim itself is untouched, so
// chunk-to-thread assignment (which never affects results) stays dynamic.
void Execute(Job& job) {
  tl_in_parallel = true;
  for (;;) {
    if (job.failed.load(std::memory_order_relaxed)) break;
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    try {
      OBS_SPAN("parallel/chunk");
      (*job.fn)(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock{job.error_mutex};
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
  tl_in_parallel = false;
}

// Fixed-size pool: N-1 persistent workers plus the submitting thread, so a
// thread count of N uses exactly N threads per region.
class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock{mutex_};
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  int WorkerCount() const { return static_cast<int>(threads_.size()); }

  void Run(std::size_t num_chunks, const std::function<void(std::size_t)>& fn) {
    // One region at a time: concurrent top-level submitters queue up rather
    // than clobbering each other's job slot.
    std::lock_guard<std::mutex> submit_lock{submit_mutex_};
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->num_chunks = num_chunks;
    {
      std::lock_guard<std::mutex> lock{mutex_};
      job->generation = ++generation_;
      job_ = job;
    }
    work_cv_.notify_all();

    Execute(*job);  // the submitting thread participates

    // All chunks are claimed once Execute returns; wait for workers still
    // finishing theirs. Workers that wake late find no chunks and exit
    // without touching `executing`, so this cannot miss completions.
    std::unique_lock<std::mutex> lock{mutex_};
    done_cv_.wait(lock, [&] { return job->executing == 0; });
    if (job_ == job) job_ = nullptr;
    lock.unlock();

    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  void WorkerLoop(int index) {
    obs::SetCurrentThreadName("pool-worker-" + std::to_string(index));
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock{mutex_};
        work_cv_.wait(lock, [&] {
          return stop_ || (job_ != nullptr && job_->generation != seen_generation);
        });
        if (stop_) return;
        job = job_;
        seen_generation = job->generation;
        ++job->executing;
      }
      Execute(*job);
      {
        std::lock_guard<std::mutex> lock{mutex_};
        --job->executing;
      }
      done_cv_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

// Lazily (re)built to match the configured thread count. Guarded by a mutex
// so concurrent first-use is safe; resize only happens between regions.
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

ThreadPool& PoolFor(int threads) {
  std::lock_guard<std::mutex> lock{g_pool_mutex};
  if (g_pool == nullptr || g_pool->WorkerCount() != threads - 1) {
    g_pool.reset();  // join old workers before spawning the new set
    g_pool = std::make_unique<ThreadPool>(threads - 1);
  }
  return *g_pool;
}

}  // namespace

int ThreadCount() {
  const int override_count = g_thread_override.load(std::memory_order_relaxed);
  if (override_count > 0) return override_count;
  const int env = EnvThreads();
  return env > 0 ? env : HardwareThreads();
}

void SetThreadCount(int threads) {
  DCN_REQUIRE(!tl_in_parallel,
              "SetThreadCount must not be called inside a parallel region");
  g_thread_override.store(threads > 0 ? threads : 0, std::memory_order_relaxed);
}

void ConfigureThreads(const CliArgs& args) {
  const std::int64_t threads = args.GetInt("threads", 0);
  DCN_REQUIRE(threads >= 0 && threads <= kMaxThreads,
              "--threads must be in [0, " + std::to_string(kMaxThreads) +
                  "] (0 = automatic)");
  // DCN_THREADS is resolved here, once, and validated even when --threads
  // wins, so a malformed value fails at start-up in every binary.
  const int env = EnvThreads();
  SetThreadCount(threads > 0 ? static_cast<int>(threads) : env);
}

bool InParallelRegion() { return tl_in_parallel; }

bool RegionRunsOnPool(std::size_t num_chunks) {
  return OnPool(num_chunks, ThreadCount());
}

SpinBarrier::SpinBarrier(int parties) : parties_(parties) {
  DCN_REQUIRE(parties >= 1, "SpinBarrier needs at least one party");
}

void SpinBarrier::Arrive() {
  if (aborted_.load(std::memory_order_acquire)) {
    throw FailedPrecondition{"SpinBarrier aborted: a team member failed"};
  }
  if (parties_ == 1) return;
  const std::uint64_t phase = phase_.load(std::memory_order_acquire);
  // The RMW chain on `arrived_` (acq_rel) makes the last arriver see every
  // earlier member's writes; everyone else synchronizes through the release
  // store / acquire load of `phase_`.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_release);
  } else {
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
      // Brief spin for the all-cores-free case, then yield so oversubscribed
      // teams (TSan, 1-core CI) make progress instead of burning the quantum.
      if (++spins > 128) std::this_thread::yield();
    }
  }
  if (aborted_.load(std::memory_order_acquire)) {
    throw FailedPrecondition{"SpinBarrier aborted: a team member failed"};
  }
}

void SpinBarrier::Abort() {
  aborted_.store(true, std::memory_order_release);
  // Advance the phase so members blocked in the spin loop wake up and observe
  // the abort flag. Racing with a normal phase advance is harmless: spinners
  // only compare against their captured phase value.
  phase_.fetch_add(1, std::memory_order_release);
}

int TeamSize() {
  if (tl_in_parallel) return 1;
  return std::max(1, ThreadCount());
}

void RunTeam(int team, const std::function<void(int, SpinBarrier&)>& body) {
  DCN_REQUIRE(team >= 1, "RunTeam needs at least one member");
  DCN_REQUIRE(team == 1 || (!tl_in_parallel && team <= ThreadCount()),
              "RunTeam team size must come from TeamSize(): every member "
              "needs a dedicated thread or the barrier deadlocks");
  SpinBarrier barrier{team};
  // One chunk per member over the pool: with num_chunks == ThreadCount()-ish
  // executors, each executor claims exactly one chunk (it cannot claim a
  // second while blocked at a barrier inside the first), so every member has
  // its own thread. A team of 1 takes RunChunks' serial inline path.
  detail::RunChunks(static_cast<std::size_t>(team), [&](std::size_t member) {
    try {
      body(static_cast<int>(member), barrier);
    } catch (...) {
      barrier.Abort();
      throw;
    }
  });
}

namespace detail {

void RunChunks(std::size_t num_chunks, const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) return;
  // Region/chunk totals are a pure function of the submitted work (fixed
  // chunking), so these counters are bit-identical at any thread count.
  static obs::Counter& obs_regions = obs::GetCounter("parallel/regions");
  static obs::Counter& obs_chunks = obs::GetCounter("parallel/chunks");
  static obs::Gauge& obs_threads = obs::GetGauge("parallel/threads");
  obs_regions.Add(1);
  obs_chunks.Add(num_chunks);
  OBS_SPAN("parallel/region");
  const int threads = ThreadCount();
  obs_threads.Set(threads);
  if (!OnPool(num_chunks, threads)) {
    // Serial path: same chunks, ascending order. Nested regions land here so
    // a worker can safely call into parallel-aware library code.
    const bool was_nested = tl_in_parallel;
    tl_in_parallel = true;
    try {
      for (std::size_t c = 0; c < num_chunks; ++c) {
        OBS_SPAN("parallel/chunk");
        fn(c);
      }
    } catch (...) {
      tl_in_parallel = was_nested;
      throw;
    }
    tl_in_parallel = was_nested;
    return;
  }
  PoolFor(threads).Run(num_chunks, fn);
}

}  // namespace detail
}  // namespace dcn
