#include "obs/monitor.h"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace dcn::obs::monitor {
namespace {

constexpr int kQ = 16;  // fixed-point fraction bits

// Q16 values surface in JSON as plain doubles (exact: 16 fractional bits).
double FromQ(std::int64_t q) {
  return static_cast<double>(q) / static_cast<double>(std::int64_t{1} << kQ);
}

const char* KindName(AlertKind kind) {
  return kind == AlertKind::kFire ? "fire" : "clear";
}

const char* EntityPrefix(EntityKind kind) {
  return kind == EntityKind::kLink ? "link" : "node";
}

struct RunStore {
  std::mutex mutex;
  std::vector<MonitorRunSnapshot> runs;
};

RunStore& Store() {
  static RunStore* store = new RunStore;
  return *store;
}

}  // namespace

std::size_t MonitorResult::FireCount() const {
  return static_cast<std::size_t>(
      std::count_if(alerts.begin(), alerts.end(), [](const Alert& a) {
        return a.kind == AlertKind::kFire;
      }));
}

std::size_t MonitorResult::ClearCount() const {
  return alerts.size() - FireCount();
}

HealthMonitor::HealthMonitor(const MonitorConfig& config) : config_(config) {
  DCN_REQUIRE(config.window_width > 0.0, "monitor window width must be > 0");
  DCN_REQUIRE(config.ewma_shift >= 1 && config.ewma_shift <= 16,
              "monitor ewma_shift must be in [1, 16]");
  DCN_REQUIRE(config.warmup_windows >= 1, "monitor needs >= 1 warmup window");
  DCN_REQUIRE(config.drift_percent >= 0 && config.drift_floor >= 0,
              "monitor drift parameters must be >= 0");
  DCN_REQUIRE(config.threshold_percent >= 0 && config.threshold_floor >= 1,
              "monitor threshold_floor must be >= 1");
  DCN_REQUIRE(config.alarm_windows >= 1 && config.clear_windows >= 1,
              "monitor hysteresis spans must be >= 1 window");
}

std::uint32_t HealthMonitor::AddEntity(EntityKind kind, std::int64_t key) {
  DCN_REQUIRE(!sealed_, "monitor: AddEntity after Seal");
  entities_.push_back(EntityInfo{kind, key});
  return static_cast<std::uint32_t>(entities_.size() - 1);
}

std::uint16_t HealthMonitor::AddSignal(std::string name,
                                       SignalDirection direction) {
  DCN_REQUIRE(!sealed_, "monitor: AddSignal after Seal");
  DCN_REQUIRE(signals_.size() < 0xffff, "monitor: too many signals");
  signals_.push_back(std::move(name));
  directions_.push_back(direction);
  return static_cast<std::uint16_t>(signals_.size() - 1);
}

void HealthMonitor::Seal(std::uint32_t window_count) {
  DCN_REQUIRE(!sealed_, "monitor: Seal called twice");
  DCN_REQUIRE(window_count >= 1 && window_count <= 65536,
              "monitor window count must be in [1, 65536]");
  DCN_REQUIRE(!signals_.empty(), "monitor: no signals registered");
  sealed_ = true;
  window_count_ = window_count;
  detectors_.assign(signals_.size() * entities_.size(), Detector{});
  states_.assign(entities_.size(), EntityState{});
  result_.enabled = true;
  result_.window_width = config_.window_width;
  result_.windows = window_count;
  result_.entities = entities_;
  result_.signals = signals_;
  result_.directions = directions_;
  result_.delivered_per_window.assign(window_count, 0);
  result_.latency_sum_per_window.assign(window_count, 0.0);
  result_.dropped_per_window.assign(window_count, 0);
}

void HealthMonitor::StepWindow(
    const std::vector<std::vector<std::int64_t>>& values) {
  DCN_REQUIRE(sealed_, "monitor: StepWindow before Seal");
  if (stepped_ >= window_count_) return;
  DCN_REQUIRE(values.size() == signals_.size(),
              "monitor: StepWindow signal arity mismatch");
  const std::size_t entity_count = entities_.size();
  const std::int32_t window = static_cast<std::int32_t>(stepped_);
  const bool warming = stepped_ < static_cast<std::uint32_t>(
                                      config_.warmup_windows);
  for (std::size_t s = 0; s < signals_.size(); ++s) {
    DCN_REQUIRE(values[s].size() == entity_count,
                "monitor: StepWindow entity arity mismatch");
    const SignalDirection direction = directions_[s];
    Detector* row = detectors_.data() + s * entity_count;
    for (std::size_t e = 0; e < entity_count; ++e) {
      Detector& d = row[e];
      const std::int64_t v_q = values[s][e] << kQ;
      if (warming) {
        if (stepped_ == 0) {
          d.baseline_q = v_q;
        } else {
          d.baseline_q += (v_q - d.baseline_q) >> config_.ewma_shift;
        }
        d.breached = false;
        continue;
      }
      const std::int64_t dev_q = direction == SignalDirection::kDrop
                                     ? d.baseline_q - v_q
                                     : v_q - d.baseline_q;
      const std::int64_t drift_q =
          d.baseline_q * config_.drift_percent / 100 +
          (static_cast<std::int64_t>(config_.drift_floor) << kQ);
      const std::int64_t thr_q =
          std::max(static_cast<std::int64_t>(config_.threshold_floor) << kQ,
                   d.baseline_q * config_.threshold_percent / 100);
      d.cusum_q = std::clamp(d.cusum_q + dev_q - drift_q, std::int64_t{0},
                             4 * thr_q);
      d.breached = d.cusum_q > thr_q;
      if (!d.breached) {
        d.baseline_q += (v_q - d.baseline_q) >> config_.ewma_shift;
      }
    }
  }
  // Health state machine: one verdict per entity per window.
  for (std::size_t e = 0; e < entity_count; ++e) {
    EntityState& st = states_[e];
    // Dominant signal: maximum excess of cusum over its own threshold.
    bool breached = false;
    std::uint16_t dominant = 0;
    std::int64_t best_excess = 0;
    for (std::size_t s = 0; s < signals_.size(); ++s) {
      const Detector& d = detectors_[s * entity_count + e];
      if (!d.breached) continue;
      const std::int64_t thr_q =
          std::max(static_cast<std::int64_t>(config_.threshold_floor) << kQ,
                   d.baseline_q * config_.threshold_percent / 100);
      const std::int64_t excess = d.cusum_q - thr_q;
      if (!breached || excess > best_excess) {
        dominant = static_cast<std::uint16_t>(s);
        best_excess = excess;
      }
      breached = true;
    }
    if (breached) ++result_.breach_windows;
    switch (st.state) {
      case HealthState::kHealthy:
      case HealthState::kSuspect:
        if (!breached) {
          st.state = HealthState::kHealthy;
          st.streak = 0;
          break;
        }
        st.state = HealthState::kSuspect;
        ++st.streak;
        if (st.streak >= static_cast<std::uint32_t>(config_.alarm_windows)) {
          st.state = HealthState::kAlarmed;
          st.streak = 0;
          st.fired_signal = dominant;
          const Detector& d = detectors_[dominant * entity_count + e];
          result_.alerts.push_back(Alert{
              static_cast<std::uint32_t>(e), AlertKind::kFire, dominant,
              window, (window + 1) * config_.window_width,
              values[dominant][e], d.baseline_q, d.cusum_q});
        }
        break;
      case HealthState::kAlarmed:
        if (breached) {
          st.streak = 0;
          break;
        }
        ++st.streak;
        if (st.streak >= static_cast<std::uint32_t>(config_.clear_windows)) {
          st.state = HealthState::kHealthy;
          st.streak = 0;
          const std::uint16_t sig = st.fired_signal;
          const Detector& d = detectors_[sig * entity_count + e];
          result_.alerts.push_back(Alert{
              static_cast<std::uint32_t>(e), AlertKind::kClear, sig, window,
              (window + 1) * config_.window_width, values[sig][e],
              d.baseline_q, d.cusum_q});
        }
        break;
    }
  }
  ++stepped_;
}

void HealthMonitor::AddDelivery(std::uint32_t window, double latency) {
  DCN_REQUIRE(sealed_, "monitor: AddDelivery before Seal");
  if (window >= window_count_) return;
  ++result_.delivered_per_window[window];
  result_.latency_sum_per_window[window] += latency;
}

void HealthMonitor::AddDrops(std::uint32_t window, std::uint64_t count) {
  DCN_REQUIRE(sealed_, "monitor: AddDrops before Seal");
  if (window >= window_count_) return;
  result_.dropped_per_window[window] += count;
}

MonitorResult HealthMonitor::TakeResult() {
  DCN_REQUIRE(sealed_, "monitor: TakeResult before Seal");
  if (stepped_ < window_count_) {
    const std::vector<std::vector<std::int64_t>> zeros(
        signals_.size(), std::vector<std::int64_t>(entities_.size(), 0));
    while (stepped_ < window_count_) StepWindow(zeros);
  }
  return std::move(result_);
}

void PublishRun(const std::string& sim, std::uint64_t faults_scheduled,
                const MonitorResult& result) {
  static obs::Counter& runs = obs::GetCounter("monitor/runs");
  static obs::Counter& windows = obs::GetCounter("monitor/windows");
  static obs::Counter& fired = obs::GetCounter("monitor/alerts_fired");
  static obs::Counter& cleared = obs::GetCounter("monitor/alerts_cleared");
  runs.Add(1);
  windows.Add(result.windows);
  fired.Add(result.FireCount());
  cleared.Add(result.ClearCount());
  RunStore& store = Store();
  std::lock_guard<std::mutex> lock{store.mutex};
  MonitorRunSnapshot snap;
  snap.run = static_cast<int>(store.runs.size());
  snap.sim = sim;
  snap.faults_scheduled = faults_scheduled;
  snap.result = result;
  store.runs.push_back(std::move(snap));
}

std::vector<MonitorRunSnapshot> SnapshotRuns() {
  RunStore& store = Store();
  std::lock_guard<std::mutex> lock{store.mutex};
  return store.runs;
}

void WriteAlertsJson(std::ostream& out,
                     const std::vector<MonitorRunSnapshot>& runs) {
  out << "{\"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const MonitorRunSnapshot& run = runs[i];
    const MonitorResult& r = run.result;
    out << (i == 0 ? "\n" : ",\n");
    out << "{\"run\": " << run.run << ", \"sim\": \"" << JsonEscape(run.sim)
        << "\", \"window_width\": " << JsonDouble(r.window_width)
        << ", \"windows\": " << r.windows
        << ", \"entities\": " << r.entities.size()
        << ", \"signals\": [";
    for (std::size_t s = 0; s < r.signals.size(); ++s) {
      out << (s == 0 ? "" : ", ") << '"' << JsonEscape(r.signals[s]) << '"';
    }
    out << "], \"faults_scheduled\": " << run.faults_scheduled
        << ", \"fired\": " << r.FireCount()
        << ", \"cleared\": " << r.ClearCount()
        << ", \"breach_windows\": " << r.breach_windows << ",\n \"events\": [";
    for (std::size_t a = 0; a < r.alerts.size(); ++a) {
      const Alert& alert = r.alerts[a];
      const EntityInfo& entity = r.entities[alert.entity];
      out << (a == 0 ? "\n" : ",\n") << "  {\"entity\": \""
          << EntityPrefix(entity.kind) << ':' << entity.key
          << "\", \"entity_index\": " << alert.entity << ", \"kind\": \""
          << KindName(alert.kind) << "\", \"signal\": \""
          << JsonEscape(r.signals[alert.signal]) << "\", \"window\": "
          << alert.window << ", \"time\": " << JsonDouble(alert.time)
          << ", \"value\": " << alert.value << ", \"baseline\": "
          << JsonDouble(FromQ(alert.baseline_q)) << ", \"cusum\": "
          << JsonDouble(FromQ(alert.cusum_q)) << '}';
    }
    out << (r.alerts.empty() ? "]" : "\n ]") << ",\n \"recovery\": {"
        << "\"delivered\": [";
    for (std::size_t w = 0; w < r.delivered_per_window.size(); ++w) {
      out << (w == 0 ? "" : ", ") << r.delivered_per_window[w];
    }
    out << "], \"latency_sum\": [";
    for (std::size_t w = 0; w < r.latency_sum_per_window.size(); ++w) {
      out << (w == 0 ? "" : ", ") << JsonDouble(r.latency_sum_per_window[w]);
    }
    out << "], \"dropped\": [";
    for (std::size_t w = 0; w < r.dropped_per_window.size(); ++w) {
      out << (w == 0 ? "" : ", ") << r.dropped_per_window[w];
    }
    out << "]}}";
  }
  out << (runs.empty() ? "]" : "\n]") << "}";
}

void WriteAlertsJsonFile(const std::string& path) {
  const std::vector<MonitorRunSnapshot> runs = SnapshotRuns();
  WriteFile(path, "alerts JSON", [&](std::ostream& out) {
    WriteAlertsJson(out, runs);
    out << '\n';
  });
}

namespace detail {

void ResetRuns() {
  RunStore& store = Store();
  std::lock_guard<std::mutex> lock{store.mutex};
  store.runs.clear();
}

}  // namespace detail

}  // namespace dcn::obs::monitor
