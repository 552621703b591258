// Deterministic instrumentation: process-wide named counters, gauges,
// histograms, scoped timers and summary metrics (quantile sketches, heavy
// hitters, rollups), compiled in by default.
//
// Design rules that keep the instrumented code deterministic and cheap:
//  * Counter, gauge, histogram and timer values live in PER-THREAD SHARDS
//    (one slot block per thread that ever touched obs). An increment is a
//    relaxed atomic add on the calling thread's own slot — no contention, no
//    locks, no allocation on the hot path — so enabling obs never changes
//    scheduling, RNG draws, or any computed result.
//  * Summary metrics are written once per run, not per event: a simulator
//    builds a local partial and merges it from the run's own thread, so each
//    holds one mutex-guarded merged value (SummaryMetric below).
//  * Every recorded value is an exact integer, and shard merges fold in
//    deterministic (metric registration order x shard creation order)
//    order. Integer sums are order-free, so merged counter and histogram
//    values are bit-identical at any DCN_THREADS — the same contract
//    common/parallel.h gives the metrics themselves.
//  * Scoped timers (OBS_SPAN) are gated by a single relaxed-load branch:
//    with no sink attached they read no clock and write no memory. When
//    enabled they feed per-site aggregate stats and, when trace capture is
//    on, per-thread buffers exported as Chrome trace-event JSON
//    (obs/trace.h) with one lane per thread.
//
// Registration (GetCounter / GetHistogram / GetGauge / GetSpanSite) is
// idempotent and returns a process-lifetime reference; the idiomatic call
// site caches it in a function-local static:
//
//   static obs::Counter& events = obs::GetCounter("packetsim/events");
//   events.Add(n);
//
// Snapshots (TakeSnapshot, Counter::Value) and Reset must be called outside
// parallel regions: the happens-before edge that makes other threads' shard
// writes visible is the pool's region-completion synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcn::obs {

class SpanSite;

namespace detail {
// Constructs and resets SummaryMetric handles (obs.cc).
struct SummaryAccess;
// Single-branch gates for the timer fast path. `g_spans_enabled` turns on
// clock reads + aggregate timer stats; `g_trace_capture` additionally
// buffers one trace event per completed span.
extern std::atomic<bool> g_spans_enabled;
extern std::atomic<bool> g_trace_capture;

// Nanoseconds since the process's obs epoch (steady clock).
std::uint64_t NowNs();

// Closes a span opened at `start_ns` against the calling thread's shard.
void RecordSpan(const SpanSite& site, std::uint64_t start_ns);
}  // namespace detail

// Monotonically increasing named sum. Add() is a relaxed add on the calling
// thread's shard; Value() merges all shards (call it outside parallel
// regions).
class Counter {
 public:
  void Add(std::uint64_t n = 1);
  std::uint64_t Value() const;

 private:
  friend Counter& GetCounter(std::string_view name);
  explicit Counter(std::size_t id) : id_(id) {}
  std::size_t id_;
};

// Returns the process-wide counter registered under `name`, creating it on
// first use. The first-call order defines the registration order used by
// snapshots and reports.
Counter& GetCounter(std::string_view name);

// Named level. Set() records the value on the calling thread's shard; the
// merged Value() is the MAXIMUM over shards that ever called Set since the
// last Reset (max is order-free, so gauges stay deterministic whenever the
// values set are). Intended for high-water marks and configuration echoes.
class Gauge {
 public:
  void Set(std::int64_t value);
  // Merged maximum; `fallback` when no thread has Set since the last Reset.
  std::int64_t Value(std::int64_t fallback = 0) const;

 private:
  friend Gauge& GetGauge(std::string_view name);
  explicit Gauge(std::size_t id) : id_(id) {}
  std::size_t id_;
};

Gauge& GetGauge(std::string_view name);

// Exact histogram over small non-negative integers (queue depths, hop
// counts, per-level log2 frontier sizes). Values in [0, kMaxExactValue] get
// exact per-value buckets; larger values land in one overflow bucket, but
// count/sum/max stay exact for them too. Negative values are clamped to 0.
class Histogram {
 public:
  static constexpr std::int64_t kMaxExactValue = 127;

  void Add(std::int64_t value, std::uint64_t weight = 1);

  struct Snapshot {
    std::uint64_t count = 0;     // total weight
    std::int64_t sum = 0;        // weighted sum of values
    std::int64_t max = 0;        // largest value added (0 when empty)
    std::uint64_t overflow = 0;  // weight of values > kMaxExactValue
    // (value, weight) pairs for nonzero exact buckets, ascending value.
    std::vector<std::pair<std::int64_t, std::uint64_t>> buckets;
    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };
  Snapshot Value() const;  // merged across shards

 private:
  friend Histogram& GetHistogram(std::string_view name);
  explicit Histogram(std::size_t id) : id_(id) {}
  std::size_t id_;
};

Histogram& GetHistogram(std::string_view name);

// Named metric over a mergeable summary value: QuantileSketch or
// HeavyHitters (obs/sketch.h: SketchMetric, HeavyHittersMetric) or Rollup
// (obs/rollup.h: RollupMetric), registered by the Get* functions declared
// there. Merge folds a run's partial into the one merged value under the
// metric's mutex. Sketch and rollup merges are order-free; HeavyHitters
// merges are not associative, so feed a heavy-hitter metric from one thread
// per run (every simulator merges its exact post-run tallies once, from the
// thread that ran it).
template <typename Summary>
class SummaryMetric {
 public:
  void Merge(const Summary& partial) {
    const std::lock_guard<std::mutex> lock{mutex_};
    value_.Merge(partial);
  }
  Summary Merged() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return value_;
  }

 private:
  friend struct detail::SummaryAccess;
  explicit SummaryMetric(const Summary& empty) : empty_(empty), value_(empty) {}

  const Summary empty_;  // the registered parameters; Reset() restores it
  mutable std::mutex mutex_;
  Summary value_;
};

// One static timing site (a named code region). Created via GetSpanSite,
// normally through the OBS_SPAN macro below.
class SpanSite {
 public:
  std::size_t Id() const { return id_; }

 private:
  friend SpanSite& GetSpanSite(std::string_view name);
  explicit SpanSite(std::size_t id) : id_(id) {}
  std::size_t id_;
};

SpanSite& GetSpanSite(std::string_view name);

// True while timers are recording (a sink was attached or EnableSpans(true)
// was called). The relaxed load is the entirety of the disabled-path cost.
inline bool SpansEnabled() {
  return detail::g_spans_enabled.load(std::memory_order_relaxed);
}

// Turns aggregate span timing on/off. Trace capture (per-event buffering for
// the Chrome exporter) is a separate switch layered on top; enabling capture
// enables spans, disabling spans disables capture.
void EnableSpans(bool enabled);
void EnableTraceCapture(bool enabled);
bool TraceCaptureEnabled();

// RAII scoped timer: records the enclosing scope's wall time against a span
// site. All cost sits behind the SpansEnabled() branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site) {
    if (SpansEnabled()) {
      site_ = &site;
      start_ = detail::NowNs();
    }
  }
  ~ScopedSpan() {
    if (site_ != nullptr) detail::RecordSpan(*site_, start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_ = nullptr;
  std::uint64_t start_ = 0;
};

// Names the calling thread's lane in trace exports and reports. The pool
// workers name themselves "pool-worker-N"; the main thread is "main" by
// default and any other thread "thread-<i>". Lanes (Snapshot tids) follow
// the names: "main" is lane 0, then the pool workers by N, then every other
// thread in the order it first touched obs.
void SetCurrentThreadName(std::string name);

// Zeroes every metric value (summary metrics read empty again), span
// aggregate, and buffered trace event while keeping all registrations (and
// handles) valid. Also clears the run store (obs/flight.h: every run with its
// time series and monitor verdicts), restarting run ids at 0. Call between
// test cases or measurement windows, outside parallel regions.
void Reset();

// ---------------------------------------------------------------------------
// Snapshots — the merged, deterministic view consumed by obs/trace.h and
// obs/report.h. Rows appear in registration order; trace events sorted by
// (tid, start) so per-lane timestamps are monotone.
// ---------------------------------------------------------------------------

struct CounterRow {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeRow {
  std::string name;
  std::int64_t value = 0;
  bool set = false;  // false: no thread Set() since the last Reset
};

struct HistogramRow {
  std::string name;
  Histogram::Snapshot stats;
};

struct TimerRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

struct TraceEvent {
  std::size_t site = 0;  // index into Snapshot::span_names
  int tid = 0;           // trace lane (see SetCurrentThreadName)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

struct Snapshot {
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
  std::vector<TimerRow> timers;
  std::vector<std::string> span_names;                  // by site id
  std::vector<std::pair<int, std::string>> threads;     // (tid, name), by tid
  std::vector<TraceEvent> trace;                        // sorted (tid, start)
};

Snapshot TakeSnapshot();

// Merged value of a counter by name; 0 if the name was never registered
// (convenience for benchmark readouts).
std::uint64_t CounterValue(std::string_view name);

}  // namespace dcn::obs

// Opens a scoped timer for the rest of the enclosing scope:
//   OBS_SPAN("packetsim/run");
// The site lookup happens once per call site (function-local static).
#define DCN_OBS_CONCAT_INNER(a, b) a##b
#define DCN_OBS_CONCAT(a, b) DCN_OBS_CONCAT_INNER(a, b)
#define DCN_OBS_SPAN_IMPL(name, id)                                      \
  static ::dcn::obs::SpanSite& DCN_OBS_CONCAT(obs_site_, id) =           \
      ::dcn::obs::GetSpanSite(name);                                     \
  const ::dcn::obs::ScopedSpan DCN_OBS_CONCAT(obs_span_, id) {           \
    DCN_OBS_CONCAT(obs_site_, id)                                        \
  }
#define OBS_SPAN(name) DCN_OBS_SPAN_IMPL(name, __COUNTER__)
