// Deterministic online health monitor: integer-arithmetic anomaly detectors
// over fixed-width signal windows, per-entity health state machines with
// hysteresis, and an append-only alert log with fire/clear timestamps.
//
// The monitor consumes the simulators' existing per-link / per-switch signals
// *while the run executes*: callers register entities (directed links,
// switches) and signals (e.g. "tx" departures, "drops" queue rejections) up
// front, then feed one integer value per (signal, entity) at every window
// boundary. All detector state advances in 64-bit Q16.16 fixed point —
// no floating-point accumulation anywhere in the decision path — so verdicts
// are bit-identical across platforms and across `DCN_THREADS` as long as the
// per-window integer counts fed in are identical. The sharded packet engine
// guarantees exactly that (see sim/packetsim.cc): members count events for
// their own link block, member 0 steps the finished windows after each
// engine window's end barrier, and both engines attribute events to windows
// with the one obs::WindowOf rule (obs/timeseries.h).
//
// Detector math per (signal, entity), value V fed as Q16 (v << 16):
//
//   baseline += (V - baseline) >> ewma_shift        (EWMA; frozen while the
//                                                    signal is breached so an
//                                                    outage cannot drag its
//                                                    own baseline down)
//   dev    = baseline - V   (kDrop signals: "value collapsed")
//            V - baseline   (kSpike signals: "value exploded")
//   drift  = baseline * drift_percent / 100 + (drift_floor << 16)
//   thr    = max(threshold_floor << 16, baseline * threshold_percent / 100)
//   cusum  = clamp(cusum + dev - drift, 0, 4 * thr)
//   breached = cusum > thr
//
// The first warmup_windows windows only train the baseline (window 0 seeds it
// directly); detectors arm afterwards. The 4*thr clamp bounds how far a long
// outage can wind the statistic up, so clears converge a fixed number of
// windows after the signal recovers instead of after the whole outage length.
//
// Health state machine per entity (breached = any registered signal breached):
//
//   healthy --breach--> suspect --breach x alarm_windows--> alarmed (FIRE)
//   suspect --calm--> healthy                (flap suppressed, no alert)
//   alarmed --calm x clear_windows--> healthy (CLEAR)
//
// Alerts record the breaching window, its end time, and the detector state of
// the dominant signal (max cusum excess over threshold; ties to the lowest
// signal index). Completed runs are published to a process-global store —
// mirroring obs/flight.h — which obs/report.cc exports as the "alerts" stats
// block / --alerts-json document and obs/trace.cc as Chrome-trace instant
// events. obs::Reset() clears the store via monitor::detail::ResetRuns().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dcn::obs::monitor {

// Direction of badness for a signal: kDrop alarms when the value collapses
// below baseline (throughput), kSpike when it explodes above it (drops).
enum class SignalDirection : std::uint8_t { kDrop, kSpike };

enum class EntityKind : std::uint8_t { kLink, kNode };

enum class AlertKind : std::uint8_t { kFire, kClear };

enum class HealthState : std::uint8_t { kHealthy, kSuspect, kAlarmed };

struct MonitorConfig {
  bool enabled = false;     // simulators skip all monitor work when false
  double window_width = 25.0;  // sim-time units per detector window
  int ewma_shift = 3;       // baseline gain 1/2^shift, in [1, 16]
  int warmup_windows = 4;   // baseline-only windows before detectors arm
  int drift_percent = 25;   // CUSUM slack, percent of baseline
  int drift_floor = 1;      // plus this many raw units (Q16-shifted inside)
  int threshold_percent = 200;  // fire threshold, percent of baseline
  int threshold_floor = 8;      // but never below this many raw units
  int alarm_windows = 2;    // consecutive breached windows before FIRE
  int clear_windows = 3;    // consecutive calm windows before CLEAR
};

struct Alert {
  std::uint32_t entity = 0;  // index into MonitorResult::entities
  AlertKind kind = AlertKind::kFire;
  std::uint16_t signal = 0;  // dominant signal index
  std::int32_t window = 0;   // 0-based window that crossed the hysteresis bar
  double time = 0.0;         // end of that window: (window + 1) * width
  std::int64_t value = 0;    // raw signal value in that window
  std::int64_t baseline_q = 0;  // detector baseline, Q16.16
  std::int64_t cusum_q = 0;     // detector statistic, Q16.16
};

struct EntityInfo {
  EntityKind kind = EntityKind::kLink;
  std::int64_t key = 0;  // directed-link id or node id
};

// Everything a finished monitored run exports: the registration tables, the
// alert log, and the per-window recovery aggregates (delivered count /
// latency sum / drop count) that the benches turn into recovery curves.
struct MonitorResult {
  bool enabled = false;
  double window_width = 0.0;
  std::uint32_t windows = 0;
  std::vector<EntityInfo> entities;
  std::vector<std::string> signals;
  std::vector<SignalDirection> directions;
  std::vector<Alert> alerts;             // append-only, window order
  std::uint64_t breach_windows = 0;      // total (entity, window) breaches
  std::vector<std::uint32_t> delivered_per_window;
  std::vector<double> latency_sum_per_window;
  std::vector<std::uint64_t> dropped_per_window;

  std::size_t FireCount() const;
  std::size_t ClearCount() const;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const MonitorConfig& config);

  // Registration, before Seal(). Order defines indices; both engines must
  // register in the identical order for identical alert logs.
  std::uint32_t AddEntity(EntityKind kind, std::int64_t key);
  std::uint16_t AddSignal(std::string name, SignalDirection direction);

  // Fixes the window grid; allocates detector state. 1 <= count <= 65536.
  void Seal(std::uint32_t window_count);

  // Advances every detector by one window. values[signal][entity] are the
  // raw integer counts observed during the window. Must be called exactly
  // Windows() times; extra calls are ignored (the grid is fixed).
  void StepWindow(const std::vector<std::vector<std::int64_t>>& values);

  std::uint32_t Windows() const { return window_count_; }
  std::uint32_t WindowsStepped() const { return stepped_; }
  std::size_t EntityCount() const { return entities_.size(); }
  std::size_t SignalCount() const { return signals_.size(); }

  // Recovery aggregates, attributed by the caller via obs::WindowOf().
  void AddDelivery(std::uint32_t window, double latency);
  void AddDrops(std::uint32_t window, std::uint64_t count);

  // Steps any un-stepped windows with all-zero values (end-of-run flush),
  // then moves the accumulated result out. The monitor is spent afterwards.
  MonitorResult TakeResult();

 private:
  struct Detector {
    std::int64_t baseline_q = 0;
    std::int64_t cusum_q = 0;
    bool breached = false;
  };
  struct EntityState {
    HealthState state = HealthState::kHealthy;
    std::uint32_t streak = 0;
    std::uint16_t fired_signal = 0;  // dominant signal recorded at FIRE
  };

  MonitorConfig config_;
  std::vector<EntityInfo> entities_;
  std::vector<std::string> signals_;
  std::vector<SignalDirection> directions_;
  bool sealed_ = false;
  std::uint32_t window_count_ = 0;
  std::uint32_t stepped_ = 0;
  std::vector<Detector> detectors_;  // signal-major: [signal * E + entity]
  std::vector<EntityState> states_;
  MonitorResult result_;
};

// ---------------------------------------------------------------------------
// Process-global store of completed monitored runs (flight-recorder pattern).

struct MonitorRunSnapshot {
  int run = 0;                        // 0-based publish order
  std::string sim;                    // "packetsim", "broadcast", ...
  std::uint64_t faults_scheduled = 0; // size of the run's fault schedule
  MonitorResult result;
};

// Appends a completed run (serial context only: simulators publish after the
// team has joined). Also bumps the monitor/* obs counters.
void PublishRun(const std::string& sim, std::uint64_t faults_scheduled,
                const MonitorResult& result);

// Non-consuming copy of every published run, in publish order. Both the
// stats/alerts sinks and the Chrome-trace sink read the same snapshot.
std::vector<MonitorRunSnapshot> SnapshotRuns();

// Writes the alerts document — {"runs": [...]} — to `out` (no trailing
// newline; obs/report.cc embeds the same object as the stats "alerts" block).
void WriteAlertsJson(std::ostream& out,
                     const std::vector<MonitorRunSnapshot>& runs);

// Standalone --alerts-json sink: the same document plus a trailing newline.
// Throws InvalidArgument when the file cannot be written, like every sink.
void WriteAlertsJsonFile(const std::string& path);

namespace detail {
// Clears published runs and restarts run ids at 0. Called by obs::Reset().
void ResetRuns();
}  // namespace detail

}  // namespace dcn::obs::monitor
