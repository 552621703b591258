#include "obs/obs.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "common/error.h"
#include "obs/flight.h"
#include "obs/rollup.h"
#include "obs/sketch.h"

namespace dcn::obs {

namespace detail {
std::atomic<bool> g_spans_enabled{false};
std::atomic<bool> g_trace_capture{false};
}  // namespace detail

namespace {

// Fixed per-kind capacities so shard slot blocks never reallocate (atomics
// are not movable). Registration sites are static code locations; hitting a
// cap is a programming error reported loudly, not a silent drop.
constexpr std::size_t kMaxCounters = 256;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 64;
constexpr std::size_t kMaxSpanSites = 128;
// Summary metrics hold no shards; the cap only catches runaway registration.
constexpr std::size_t kMaxSummaries = 64;
constexpr std::size_t kHistSlots =
    static_cast<std::size_t>(Histogram::kMaxExactValue) + 1;

constexpr auto kRelaxed = std::memory_order_relaxed;

// Per-thread, per-histogram slot block.
struct HistShard {
  std::array<std::atomic<std::uint64_t>, kHistSlots> buckets{};
  std::atomic<std::uint64_t> overflow{0};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> max{-1};  // -1: nothing added by this thread
};

struct RawTraceEvent {
  std::uint32_t site = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

// One thread's slice of every metric. Created on the thread's first obs
// touch, owned by the registry for the rest of the process (threads are few
// and bounded: main + pool workers per configured size), so merges never
// race with shard teardown.
struct Shard {
  std::string thread_name;
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauge_value{};
  std::array<std::atomic<bool>, kMaxGauges> gauge_set{};
  std::array<std::unique_ptr<HistShard>, kMaxHistograms> hists;
  std::array<std::atomic<std::uint64_t>, kMaxSpanSites> span_count{};
  std::array<std::atomic<std::uint64_t>, kMaxSpanSites> span_total_ns{};
  // Appended only by the owning thread; read by snapshots, which must run
  // after the writing region completed (the pool's completion sync is the
  // happens-before edge).
  std::vector<RawTraceEvent> trace;
};

struct Registry {
  std::mutex mutex;
  // Names in registration order per kind; the maps give idempotent lookup.
  std::vector<std::string> counter_names, gauge_names, hist_names, span_names,
      sketch_names, hitters_names, rollup_names;
  std::map<std::string, std::size_t, std::less<>> counter_ids, gauge_ids,
      hist_ids, span_ids, sketch_ids, hitters_ids, rollup_ids;
  // Handle storage: one stable object per registered metric.
  std::vector<std::unique_ptr<Counter>> counter_handles;
  std::vector<std::unique_ptr<Gauge>> gauge_handles;
  std::vector<std::unique_ptr<Histogram>> hist_handles;
  std::vector<std::unique_ptr<SpanSite>> span_handles;
  std::vector<std::unique_ptr<SketchMetric>> sketch_handles;
  std::vector<std::unique_ptr<HeavyHittersMetric>> hitters_handles;
  std::vector<std::unique_ptr<RollupMetric>> rollup_handles;
  // In creation (first-touch) order; trace lanes come from ShardsByLane.
  std::vector<std::unique_ptr<Shard>> shards;
};

// Leaky singleton: instrumented code may run during static destruction.
Registry& Reg() {
  static Registry* registry = new Registry;
  return *registry;
}

thread_local Shard* tl_shard = nullptr;

// Static initialization runs on the main thread.
const std::thread::id g_main_thread = std::this_thread::get_id();

Shard& LocalShard() {
  if (tl_shard == nullptr) {
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock{reg.mutex};
    auto shard = std::make_unique<Shard>();
    shard->thread_name = std::this_thread::get_id() == g_main_thread
                             ? "main"
                             : "thread-" + std::to_string(reg.shards.size());
    tl_shard = shard.get();
    reg.shards.push_back(std::move(shard));
  }
  return *tl_shard;
}

// The shards in trace-lane order: "main", then "pool-worker-<i>" by i, then
// every other thread, ties in first-touch order. Lanes follow names rather
// than which thread touched obs first, so a trace maps tid -> name the same
// way in every run.
std::vector<const Shard*> ShardsByLane(const Registry& reg) {
  const auto rank = [](const std::string& name) -> std::pair<int, int> {
    if (name == "main") return {0, 0};
    constexpr std::string_view kPool = "pool-worker-";
    if (name.starts_with(kPool)) {
      const char* end = name.data() + name.size();
      int index = 0;
      const auto [ptr, ec] =
          std::from_chars(name.data() + kPool.size(), end, index);
      if (ec == std::errc{} && ptr == end) return {1, index};
    }
    return {2, 0};
  };
  std::vector<const Shard*> lanes;
  for (const auto& shard : reg.shards) lanes.push_back(shard.get());
  std::stable_sort(lanes.begin(), lanes.end(),
                   [&](const Shard* a, const Shard* b) {
                     return rank(a->thread_name) < rank(b->thread_name);
                   });
  return lanes;
}

HistShard& LocalHistShard(std::size_t id) {
  Shard& shard = LocalShard();
  if (shard.hists[id] == nullptr) {
    // Only the owning thread writes this slot; snapshots read it under the
    // registry lock after the writer's region completed.
    shard.hists[id] = std::make_unique<HistShard>();
  }
  return *shard.hists[id];
}

// Registers (or finds) `name` in one kind's tables. `make` constructs the
// handle — defined inside the befriended Get* functions so the private
// constructors stay private. Caller holds no lock.
template <typename Handle, typename Make>
Handle& Register(std::vector<std::string>& names,
                 std::map<std::string, std::size_t, std::less<>>& ids,
                 std::vector<std::unique_ptr<Handle>>& handles,
                 std::size_t capacity, std::string_view name, const char* kind,
                 Make make) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  if (const auto it = ids.find(name); it != ids.end()) {
    return *handles[it->second];
  }
  DCN_REQUIRE(names.size() < capacity,
              std::string{"obs: too many registered "} + kind);
  const std::size_t id = names.size();
  names.emplace_back(name);
  ids.emplace(std::string{name}, id);
  handles.push_back(make(id));
  return *handles.back();
}

void FetchMax(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t seen = slot.load(kRelaxed);
  while (seen < value && !slot.compare_exchange_weak(seen, value, kRelaxed)) {
  }
}

// Shard folds, one per metric kind: every reader of a metric (its handle's
// Value(), CounterValue, TakeSnapshot) merges the per-thread shards through
// these. The caller holds the registry lock.
std::uint64_t FoldCounter(const Registry& reg, std::size_t id) {
  std::uint64_t total = 0;
  for (const auto& shard : reg.shards) {
    total += shard->counters[id].load(kRelaxed);
  }
  return total;
}

// The largest value any thread Set(); `set` is false when none did.
GaugeRow FoldGauge(const Registry& reg, std::size_t id) {
  GaugeRow row;
  for (const auto& shard : reg.shards) {
    if (!shard->gauge_set[id].load(kRelaxed)) continue;
    const std::int64_t v = shard->gauge_value[id].load(kRelaxed);
    row.value = row.set ? std::max(row.value, v) : v;
    row.set = true;
  }
  return row;
}

Histogram::Snapshot FoldHistogram(const Registry& reg, std::size_t id) {
  Histogram::Snapshot merged;
  std::array<std::uint64_t, kHistSlots> buckets{};
  std::int64_t max = -1;
  for (const auto& shard : reg.shards) {
    const HistShard* hist = shard->hists[id].get();
    if (hist == nullptr) continue;
    for (std::size_t slot = 0; slot < kHistSlots; ++slot) {
      buckets[slot] += hist->buckets[slot].load(kRelaxed);
    }
    merged.overflow += hist->overflow.load(kRelaxed);
    merged.count += hist->count.load(kRelaxed);
    merged.sum += hist->sum.load(kRelaxed);
    max = std::max(max, hist->max.load(kRelaxed));
  }
  merged.max = max < 0 ? 0 : max;
  for (std::size_t slot = 0; slot < kHistSlots; ++slot) {
    if (buckets[slot] != 0) {
      merged.buckets.emplace_back(static_cast<std::int64_t>(slot),
                                  buckets[slot]);
    }
  }
  return merged;
}

// Merged rows of one summary kind, in registration order.
template <typename Row, typename Summary>
std::vector<Row> SummaryRows(
    const std::vector<std::string>& names,
    const std::vector<std::unique_ptr<SummaryMetric<Summary>>>& handles) {
  std::lock_guard<std::mutex> lock{Reg().mutex};
  std::vector<Row> rows;
  rows.reserve(names.size());
  for (std::size_t id = 0; id < names.size(); ++id) {
    rows.push_back(Row{names[id], handles[id]->Merged()});
  }
  return rows;
}

}  // namespace

namespace detail {

struct SummaryAccess {
  template <typename Summary>
  static std::unique_ptr<SummaryMetric<Summary>> Make(const Summary& empty) {
    return std::unique_ptr<SummaryMetric<Summary>>{
        new SummaryMetric<Summary>{empty}};
  }
  template <typename Summary>
  static const Summary& Empty(const SummaryMetric<Summary>& metric) {
    return metric.empty_;
  }
  template <typename Summary>
  static void Reset(
      const std::vector<std::unique_ptr<SummaryMetric<Summary>>>& metrics) {
    for (const auto& metric : metrics) {
      const std::lock_guard<std::mutex> lock{metric->mutex_};
      metric->value_ = metric->empty_;
    }
  }
};

std::uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

void RecordSpan(const SpanSite& site, std::uint64_t start_ns) {
  const std::uint64_t end_ns = NowNs();
  const std::uint64_t dur_ns = end_ns - start_ns;
  Shard& shard = LocalShard();
  const std::size_t id = site.Id();
  shard.span_count[id].fetch_add(1, kRelaxed);
  shard.span_total_ns[id].fetch_add(dur_ns, kRelaxed);
  if (g_trace_capture.load(kRelaxed)) {
    shard.trace.push_back(
        RawTraceEvent{static_cast<std::uint32_t>(id), start_ns, dur_ns});
  }
}

}  // namespace detail

void Counter::Add(std::uint64_t n) {
  LocalShard().counters[id_].fetch_add(n, kRelaxed);
}

std::uint64_t Counter::Value() const {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  return FoldCounter(reg, id_);
}

Counter& GetCounter(std::string_view name) {
  Registry& reg = Reg();
  return Register(reg.counter_names, reg.counter_ids, reg.counter_handles,
                  kMaxCounters, name, "counters", [](std::size_t id) {
                    return std::unique_ptr<Counter>{new Counter{id}};
                  });
}

void Gauge::Set(std::int64_t value) {
  Shard& shard = LocalShard();
  shard.gauge_value[id_].store(value, kRelaxed);
  shard.gauge_set[id_].store(true, kRelaxed);
}

std::int64_t Gauge::Value(std::int64_t fallback) const {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  const GaugeRow row = FoldGauge(reg, id_);
  return row.set ? row.value : fallback;
}

Gauge& GetGauge(std::string_view name) {
  Registry& reg = Reg();
  return Register(reg.gauge_names, reg.gauge_ids, reg.gauge_handles,
                  kMaxGauges, name, "gauges", [](std::size_t id) {
                    return std::unique_ptr<Gauge>{new Gauge{id}};
                  });
}

void Histogram::Add(std::int64_t value, std::uint64_t weight) {
  if (weight == 0) return;
  if (value < 0) value = 0;
  HistShard& hist = LocalHistShard(id_);
  if (value <= kMaxExactValue) {
    hist.buckets[static_cast<std::size_t>(value)].fetch_add(weight, kRelaxed);
  } else {
    hist.overflow.fetch_add(weight, kRelaxed);
  }
  hist.count.fetch_add(weight, kRelaxed);
  hist.sum.fetch_add(value * static_cast<std::int64_t>(weight), kRelaxed);
  FetchMax(hist.max, value);
}

Histogram::Snapshot Histogram::Value() const {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  return FoldHistogram(reg, id_);
}

Histogram& GetHistogram(std::string_view name) {
  Registry& reg = Reg();
  return Register(reg.hist_names, reg.hist_ids, reg.hist_handles,
                  kMaxHistograms, name, "histograms", [](std::size_t id) {
                    return std::unique_ptr<Histogram>{new Histogram{id}};
                  });
}

SketchMetric& GetQuantileSketch(std::string_view name,
                                double relative_accuracy) {
  Registry& reg = Reg();
  SketchMetric& metric = Register(
      reg.sketch_names, reg.sketch_ids, reg.sketch_handles, kMaxSummaries,
      name, "quantile sketches", [&](std::size_t) {
        return detail::SummaryAccess::Make(QuantileSketch{relative_accuracy});
      });
  DCN_REQUIRE(detail::SummaryAccess::Empty(metric).RelativeAccuracy() ==
                  relative_accuracy,
              "quantile sketch re-registered with a different accuracy: " +
                  std::string{name});
  return metric;
}

HeavyHittersMetric& GetHeavyHitters(std::string_view name,
                                    std::size_t capacity) {
  Registry& reg = Reg();
  HeavyHittersMetric& metric = Register(
      reg.hitters_names, reg.hitters_ids, reg.hitters_handles, kMaxSummaries,
      name, "heavy-hitter metrics", [&](std::size_t) {
        return detail::SummaryAccess::Make(HeavyHitters{capacity});
      });
  DCN_REQUIRE(detail::SummaryAccess::Empty(metric).Capacity() == capacity,
              "heavy-hitter metric re-registered with a different "
              "capacity: " +
                  std::string{name});
  return metric;
}

RollupMetric& GetRollup(std::string_view name,
                        std::span<const std::string> level_names) {
  const std::vector<std::string> levels{level_names.begin(),
                                        level_names.end()};
  Registry& reg = Reg();
  RollupMetric& metric = Register(
      reg.rollup_names, reg.rollup_ids, reg.rollup_handles, kMaxSummaries,
      name, "rollups",
      [&](std::size_t) { return detail::SummaryAccess::Make(Rollup{levels}); });
  DCN_REQUIRE(detail::SummaryAccess::Empty(metric).LevelNames() == levels,
              "rollup re-registered with a different level chain: " +
                  std::string{name});
  return metric;
}

std::vector<SketchRow> TakeSketchSnapshot() {
  Registry& reg = Reg();
  return SummaryRows<SketchRow>(reg.sketch_names, reg.sketch_handles);
}

std::vector<HeavyHittersRow> TakeHeavyHittersSnapshot() {
  Registry& reg = Reg();
  return SummaryRows<HeavyHittersRow>(reg.hitters_names, reg.hitters_handles);
}

std::vector<RollupRow> TakeRollupSnapshot() {
  Registry& reg = Reg();
  return SummaryRows<RollupRow>(reg.rollup_names, reg.rollup_handles);
}

SpanSite& GetSpanSite(std::string_view name) {
  Registry& reg = Reg();
  return Register(reg.span_names, reg.span_ids, reg.span_handles,
                  kMaxSpanSites, name, "span sites", [](std::size_t id) {
                    return std::unique_ptr<SpanSite>{new SpanSite{id}};
                  });
}

void EnableSpans(bool enabled) {
  detail::g_spans_enabled.store(enabled, kRelaxed);
  if (!enabled) detail::g_trace_capture.store(false, kRelaxed);
}

void EnableTraceCapture(bool enabled) {
  if (enabled) detail::g_spans_enabled.store(true, kRelaxed);
  detail::g_trace_capture.store(enabled, kRelaxed);
}

bool TraceCaptureEnabled() {
  return detail::g_trace_capture.load(kRelaxed);
}

void SetCurrentThreadName(std::string name) {
  Shard& shard = LocalShard();
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  shard.thread_name = std::move(name);
}

void Reset() {
  {
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock{reg.mutex};
    for (const auto& shard : reg.shards) {
      for (auto& slot : shard->counters) slot.store(0, kRelaxed);
      for (auto& slot : shard->gauge_value) slot.store(0, kRelaxed);
      for (auto& slot : shard->gauge_set) slot.store(false, kRelaxed);
      for (auto& hist : shard->hists) {
        if (hist == nullptr) continue;
        for (auto& slot : hist->buckets) slot.store(0, kRelaxed);
        hist->overflow.store(0, kRelaxed);
        hist->count.store(0, kRelaxed);
        hist->sum.store(0, kRelaxed);
        hist->max.store(-1, kRelaxed);
      }
      for (auto& slot : shard->span_count) slot.store(0, kRelaxed);
      for (auto& slot : shard->span_total_ns) slot.store(0, kRelaxed);
      shard->trace.clear();
    }
    detail::SummaryAccess::Reset(reg.sketch_handles);
    detail::SummaryAccess::Reset(reg.hitters_handles);
    detail::SummaryAccess::Reset(reg.rollup_handles);
  }
  // The run store resets with the metrics so repeated experiments in one
  // process (tests, bench loops) start from run id 0. Outside the registry
  // lock: the store has its own lock and never calls back into this one.
  flight::detail::ResetRuns();
}

Snapshot TakeSnapshot() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  Snapshot snap;

  snap.counters.reserve(reg.counter_names.size());
  for (std::size_t id = 0; id < reg.counter_names.size(); ++id) {
    snap.counters.push_back(
        CounterRow{reg.counter_names[id], FoldCounter(reg, id)});
  }

  for (std::size_t id = 0; id < reg.gauge_names.size(); ++id) {
    GaugeRow row = FoldGauge(reg, id);
    row.name = reg.gauge_names[id];
    snap.gauges.push_back(std::move(row));
  }

  for (std::size_t id = 0; id < reg.hist_names.size(); ++id) {
    snap.histograms.push_back(
        HistogramRow{reg.hist_names[id], FoldHistogram(reg, id)});
  }

  for (std::size_t id = 0; id < reg.span_names.size(); ++id) {
    TimerRow row{reg.span_names[id], 0, 0};
    for (const auto& shard : reg.shards) {
      row.count += shard->span_count[id].load(kRelaxed);
      row.total_ns += shard->span_total_ns[id].load(kRelaxed);
    }
    snap.timers.push_back(std::move(row));
  }

  snap.span_names = reg.span_names;
  const std::vector<const Shard*> lanes = ShardsByLane(reg);
  for (int tid = 0; tid < static_cast<int>(lanes.size()); ++tid) {
    snap.threads.emplace_back(tid, lanes[tid]->thread_name);
    for (const RawTraceEvent& event : lanes[tid]->trace) {
      snap.trace.push_back(
          TraceEvent{event.site, tid, event.start_ns, event.dur_ns});
    }
  }
  // Per-lane monotone timestamps; equal starts order the longer (enclosing)
  // span first so nesting renders correctly.
  std::sort(snap.trace.begin(), snap.trace.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  return snap;
}

std::uint64_t CounterValue(std::string_view name) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock{reg.mutex};
  const auto it = reg.counter_ids.find(name);
  return it == reg.counter_ids.end() ? 0 : FoldCounter(reg, it->second);
}

}  // namespace dcn::obs
