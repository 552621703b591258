// Flight recorder: deterministic per-packet / per-flow tracing for the
// simulators (sim/packetsim, sim/broadcast_sim, sim/fluid, sim/flowsim).
//
// The obs/obs.h registry answers "how much happened"; the flight recorder
// answers "when, and to whom". Per simulation run it can capture:
//
//   * SAMPLED PACKET LIFECYCLES — a deterministic subset of packets records
//     per-hop enqueue / service-start / transmit timestamps. The sampling
//     decision is a pure function of (salt, run id, packet id) via
//     Rng::Fork, so it never touches the simulation's own RNG stream, the
//     same packets are sampled at any DCN_THREADS and any sampling rate, and
//     enabling it cannot change a single simulated event. Exported as Chrome
//     trace complete ("X") + flow ("s"/"f") events through obs/trace.h: in
//     the run's own process, one thread lane per directed link.
//   * TIME SERIES — fixed-width buckets of per-link transmissions, per-link
//     queue depth, and in-flight packets (obs/timeseries.h), kept per run in
//     first-touch order; exported as CSV/JSON.
//   * LATENCY BREAKDOWN — queueing vs serialization vs hop count per
//     delivered measured packet (every packet, not just sampled ones),
//     surfaced in PacketSimResult::breakdown and the --latency-breakdown
//     tables of bench_f9 / bench_f22.
//   * FLOW RECORDS — per-flow completion times from sim/fluid and max-min
//     rates from sim/flowsim, exported as a CSV summary (--fct-csv).
//   * MONITOR VERDICTS — a monitored run's obs/monitor.h result (alert log,
//     recovery aggregates) and the size of its fault schedule, attached by
//     RunScope::Publish. The run store is the one store of per-run records:
//     every sink (obs/report.h) reads one TakeRunsSnapshot(), and a run id
//     names the same run in the trace, the series, the flow CSV and the
//     alert log.
//
// Determinism contract: the recorder only OBSERVES. It draws no randomness
// from the simulation, allocates outside the simulators' hot state, and is
// consulted through pointer checks that are null when disabled — a
// recorder-on run produces byte-identical simulation results to a
// recorder-off run (tests/test_flight.cc proves it), and recorder-off
// overhead is a handful of predictable branches per event.
//
// Usage inside a simulator:
//
//   flight::RunScope flight_run{"packetsim", config.duration, link_count,
//                               lane_namer};
//   flight::Recorder* fr = flight_run.recorder();   // nullptr when disabled
//   ...
//   if (fr != nullptr) fr->LinkTransmit(link, now);
//
// Runs nest per thread: a RunScope opened while another is active on the
// same thread records nothing (fluid's inner max-min calls do not spam rate
// records). Snapshots (TakeRunsSnapshot) must be taken outside any active
// run.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/monitor.h"
#include "obs/sketch.h"
#include "obs/timeseries.h"

namespace dcn::obs::flight {

struct Config {
  // Fraction of packets whose full lifecycle is recorded; 0 disables
  // sampling. The decision for packet p in run r is
  // Rng{salt}.Fork(r).Fork(p).NextDouble() < sample_rate — pure, so runs are
  // bit-identical at any thread count and any rate.
  double sample_rate = 0.0;
  std::uint64_t salt = 0xf119a7ec02de2ull;
  // Hard cap on sampled records per run; packets sampled past it are counted
  // in RunSnapshot::sampling_skipped instead of recorded.
  std::uint32_t max_sampled_per_run = 1u << 16;
  // Bucket width for the per-link/in-flight time series, in simulated time
  // units; 0 disables the time series.
  double bucket_width = 0.0;
  bool latency_breakdown = false;
  bool fct = false;  // flow-completion / rate records (fluid, flowsim)
  // Bounded-memory FCT summary (--fct-summary): per-run completion times go
  // into a quantile sketch (obs/sketch.h) instead of — or alongside — the
  // per-flow records, so a million-flow run exports O(buckets) telemetry.
  // Unroutable flows (+inf completion) are counted, never sketched.
  bool fct_summary = false;
};

// Turns the recorder on for subsequent runs (config is process-global, like
// the obs span switches). Enable with an all-zero config records nothing but
// still opens runs; Disable() stops opening runs entirely (a monitored run
// still leaves its verdicts, see RunScope::Publish).
void Enable(const Config& config);
void Disable();

struct HopRecord {
  std::uint64_t link = 0;
  double enqueue = 0.0;  // joined this link's FIFO
  double start = 0.0;    // reached the head and began transmission
  double depart = 0.0;   // finished transmission
  bool dropped = false;  // rejected by a full queue (start/depart unset)
};

struct PacketRecord {
  std::uint64_t packet = 0;   // run-local id (packetsim: pool index)
  std::uint32_t source = 0;   // route/source index (broadcast: message id)
  double born = 0.0;
  bool measured = false;
  bool delivered = false;     // false: dropped somewhere en route
  double completed = 0.0;     // delivery or drop time
  std::vector<HopRecord> hops;
};

// Queueing vs serialization decomposition over every delivered measured
// packet of one run. total = queueing + hops * service_time exactly, per
// packet.
struct LatencyBreakdown {
  bool enabled = false;
  double service_time = 1.0;
  SampleSet total;     // end-to-end latency
  SampleSet queueing;  // total minus hops * service_time
  IntHistogram hops;
  double MeanSerialization() const {
    return hops.Count() == 0 ? 0.0 : hops.Mean() * service_time;
  }
  double QueueingShare() const {
    return total.Count() == 0 || total.Mean() == 0.0
               ? 0.0
               : queueing.Mean() / total.Mean();
  }
};

enum class FlowKind : std::uint8_t {
  kFct,   // value = completion time (sim/fluid); bytes carried
  kRate,  // value = allocated max-min rate (sim/flowsim)
};

struct FlowRecord {
  FlowKind kind = FlowKind::kFct;
  std::uint32_t flow = 0;
  double bytes = 0.0;  // 0 for kRate
  double value = 0.0;  // finish time or rate; +inf for unroutable flows
};

class Recorder {
 public:
  static constexpr std::uint32_t kNotSampled = 0xffffffffu;

  int RunId() const { return run_; }
  bool SamplingOn() const { return sampling_; }
  bool TimeSeriesOn() const { return timeseries_; }
  bool BreakdownOn() const { return breakdown_.enabled; }
  // True when Flow() has any sink: per-flow records (--fct-csv) or the
  // bounded quantile summary (--fct-summary).
  bool FctOn() const { return fct_ || fct_summary_; }

  // --- sampled lifecycles -------------------------------------------------
  // Pure sampling predicate: would PacketBorn(packet, ...) sample this
  // packet, ignoring the per-run record cap? Const and thread-safe (the
  // decision is a pure function of the run's base stream and `packet`), so a
  // parallel simulator can pre-filter which packets need buffered flight ops
  // before replaying them through the single-threaded mutating calls below.
  // The cap is still applied by PacketBorn at replay time.
  bool WouldSample(std::uint64_t packet) const;

  // Returns an index for the Hop*/Packet* calls, or kNotSampled. `packet`
  // must be unique within the run.
  std::uint32_t PacketBorn(std::uint64_t packet, std::uint32_t source,
                           double now, bool measured);
  // `service_now`: the queue was empty, so transmission starts immediately.
  void HopEnqueue(std::uint32_t rec, std::uint64_t link, double now,
                  bool service_now);
  // The packet's current hop reached the queue head.
  void HopServiceStart(std::uint32_t rec, double now);
  // The packet's current hop finished transmission.
  void HopDepart(std::uint32_t rec, double now);
  void PacketDropped(std::uint32_t rec, std::uint64_t link, double now);
  void PacketDelivered(std::uint32_t rec, double now);

  // --- latency breakdown (every delivered measured packet) ----------------
  void Delivery(double latency, int hops);
  const LatencyBreakdown& Breakdown() const { return breakdown_; }

  // --- time series --------------------------------------------------------
  void LinkTransmit(std::uint64_t link, double now);
  void LinkQueueDepth(std::uint64_t link, double now, int depth);
  void InFlight(double now, std::int64_t count);

  // --- flow records -------------------------------------------------------
  // Records the flow into the enabled sinks: a FlowRecord when per-flow
  // records are on, and — for finite kFct values — the run's quantile sketch
  // when the summary is on. Non-finite kFct values (unroutable flows) bump
  // the unroutable counter instead of poisoning the tail quantiles.
  void Flow(FlowKind kind, std::uint32_t flow, double bytes, double value);

 private:
  friend class RunScope;
  friend struct FlightAccess;
  Recorder(int run, std::string sim, double duration, const Config& config,
           std::size_t link_count,
           std::function<std::string(std::uint64_t)> lane_namer);

  const std::string& LaneName(std::uint64_t link);
  std::uint32_t NewSeries(std::string name, SeriesKind kind);  // index + 1
  TimeSeriesRow& LinkSeries(std::vector<std::uint32_t>& slots,
                            std::uint64_t link, const char* metric,
                            SeriesKind kind);
  void Finish();  // seals the run: flushes obs counters, drops the namer

  int run_ = 0;
  std::string sim_;
  double duration_ = 0.0;
  Config config_;
  bool sampling_ = false;
  bool timeseries_ = false;
  bool fct_ = false;
  bool fct_summary_ = false;
  Rng sample_base_{0};  // Rng{salt}.Fork(run); Fork(packet) decides

  std::vector<PacketRecord> records_;
  std::uint64_t sampling_skipped_ = 0;
  LatencyBreakdown breakdown_;
  std::vector<FlowRecord> flows_;
  QuantileSketch fct_sketch_;
  std::uint64_t unroutable_ = 0;

  std::function<std::string(std::uint64_t)> lane_namer_;
  std::vector<std::string> lane_names_;  // resolved, by link id
  // The run's time series in first-touch order. A slot holds a series'
  // index + 1 (0: not touched yet).
  std::vector<TimeSeriesRow> series_;
  std::vector<std::uint32_t> tx_series_;     // by link id
  std::vector<std::uint32_t> depth_series_;  // by link id
  std::uint32_t in_flight_series_ = 0;
  std::string series_prefix_;  // "run<id>/<sim>"

  monitor::MonitorResult monitor_;  // set by RunScope::Publish
  std::uint64_t faults_scheduled_ = 0;
};

// RAII handle for one simulation run. recorder() is nullptr when the flight
// recorder is disabled or another run is already active on this thread; the
// destructor seals the run and returns it to the process-wide store read by
// TakeRunsSnapshot. Disabled, construction is one atomic load: no lock.
class RunScope {
 public:
  // `lane_namer(link)` names directed-link lanes for traces and series
  // ("4->17"); resolved lazily, only for links actually touched, and only
  // while the run is open. Pass link_count 0 / no namer for simulators
  // without link lanes (fluid, flowsim).
  RunScope(std::string_view sim, double duration, std::size_t link_count,
           std::function<std::string(std::uint64_t)> lane_namer);
  RunScope(std::string_view sim, double duration)
      : RunScope(sim, duration, 0, nullptr) {}
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  Recorder* recorder() const { return recorder_; }
  // True when another run was already active on this thread at construction
  // (e.g. flowsim invoked from inside fluid's draining loop). Simulators use
  // this to keep per-call telemetry flushes to top-level invocations only.
  bool nested() const { return nested_; }

  // Files a monitored run's verdicts (serial context: after the simulator's
  // team has joined) and bumps the monitor/* obs counters. With a recorder
  // they go on this run's own record. Without one they go on a verdict-only
  // record that takes the next run id and is never sealed, so with the
  // recorder off run ids count monitored runs and no flight/* counter moves.
  void Publish(const monitor::MonitorResult& result,
               std::uint64_t faults_scheduled);

 private:
  Recorder* recorder_ = nullptr;
  bool nested_ = false;
  std::string sim_;  // for a verdict-only record
  double duration_ = 0.0;
};

struct RunSnapshot {
  int run = 0;
  std::string sim;
  double duration = 0.0;
  std::uint64_t sampling_skipped = 0;
  std::vector<PacketRecord> packets;  // in birth order
  // (link id, lane name) for every link a sampled hop touched, ascending.
  std::vector<std::pair<std::uint64_t, std::string>> lanes;
  std::vector<FlowRecord> flows;
  LatencyBreakdown breakdown;
  // FCT quantile summary + unroutable-flow count (populated when the
  // fct_summary config is on; empty otherwise).
  QuantileSketch fct_sketch;
  std::uint64_t unroutable = 0;
  // The run's time series in first-touch order (obs/timeseries.h).
  std::vector<TimeSeriesRow> series;
  // Health-monitor verdicts; monitor.enabled is false for an unmonitored
  // run. faults_scheduled is the size of the run's fault schedule.
  monitor::MonitorResult monitor;
  std::uint64_t faults_scheduled = 0;
};

// Copies every run, in run-id order. Call outside any active run and
// outside parallel regions.
std::vector<RunSnapshot> TakeRunsSnapshot();

// Per-flow summary CSV: run,sim,kind,flow,bytes,finish_time,rate — kFct rows
// fill finish_time and the derived rate, kRate rows fill rate only.
void WriteFctCsv(std::ostream& out, const std::vector<RunSnapshot>& runs);

// Quantile table over each run's FCT sketch (--fct-summary): one row per run
// that completed flows, with flow counts, unroutable count, and
// p50/p90/p99/p999/max completion times — O(1) output however many flows ran.
void WriteFctSummary(std::ostream& out, const std::vector<RunSnapshot>& runs);

namespace detail {
// Clears every run and restarts run ids at 0; keeps the Enable()/Disable()
// state and config. Called by obs::Reset().
void ResetRuns();
}  // namespace detail

}  // namespace dcn::obs::flight
