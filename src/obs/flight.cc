#include "obs/flight.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "common/table.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace dcn::obs::flight {

namespace {

struct FlightState {
  std::mutex mutex;
  bool enabled = false;
  Config config;
  int next_run = 0;
  // Sealed runs, in run-id order. Recorders are heap-stable so the owning
  // simulator thread can keep writing through its pointer lock-free while
  // other runs start or finish.
  std::vector<std::unique_ptr<Recorder>> runs;
};

FlightState& State() {
  static FlightState* state = new FlightState;
  return *state;
}

// One active run per thread: nested RunScopes (fluid's inner max-min calls)
// record nothing.
thread_local Recorder* tl_active_run = nullptr;

}  // namespace

void Enable(const Config& config) {
  DCN_REQUIRE(config.sample_rate >= 0.0 && config.sample_rate <= 1.0,
              "flight sample rate must be in [0, 1]");
  DCN_REQUIRE(config.bucket_width >= 0.0,
              "flight bucket width must be non-negative");
  FlightState& state = State();
  std::lock_guard<std::mutex> lock{state.mutex};
  state.enabled = true;
  state.config = config;
}

void Disable() {
  FlightState& state = State();
  std::lock_guard<std::mutex> lock{state.mutex};
  state.enabled = false;
}

bool Enabled() {
  FlightState& state = State();
  std::lock_guard<std::mutex> lock{state.mutex};
  return state.enabled;
}

Config CurrentConfig() {
  FlightState& state = State();
  std::lock_guard<std::mutex> lock{state.mutex};
  return state.config;
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

Recorder::Recorder(int run, std::string sim, double duration,
                   const Config& config, std::size_t link_count,
                   std::function<std::string(std::uint64_t)> lane_namer)
    : run_(run),
      sim_(std::move(sim)),
      duration_(duration),
      config_(config),
      sampling_(config.sample_rate > 0.0),
      timeseries_(config.bucket_width > 0.0),
      fct_(config.fct),
      fct_summary_(config.fct_summary),
      sample_base_(Rng{config.salt}.Fork(static_cast<std::uint64_t>(run))),
      lane_namer_(std::move(lane_namer)) {
  breakdown_.enabled = config.latency_breakdown;
  series_prefix_ = "run" + std::to_string(run_) + "/" + sim_;
  if ((sampling_ || timeseries_) && link_count > 0) {
    lane_names_.resize(link_count);
    tx_series_.assign(link_count, 0);
    depth_series_.assign(link_count, 0);
  }
}

const std::string& Recorder::LaneName(std::uint64_t link) {
  if (lane_names_.size() <= link) lane_names_.resize(link + 1);
  std::string& name = lane_names_[link];
  if (name.empty()) {
    name = lane_namer_ ? lane_namer_(link) : "link" + std::to_string(link);
  }
  return name;
}

std::uint32_t Recorder::NewSeries(std::string name, SeriesKind kind) {
  series_.push_back(
      TimeSeriesRow{std::move(name), kind, config_.bucket_width, {}});
  return static_cast<std::uint32_t>(series_.size());
}

TimeSeriesRow& Recorder::LinkSeries(std::vector<std::uint32_t>& slots,
                                    std::uint64_t link, const char* metric,
                                    SeriesKind kind) {
  if (slots.size() <= link) slots.resize(link + 1, 0);
  std::uint32_t& slot = slots[link];
  if (slot == 0) {
    slot = NewSeries(series_prefix_ + "/" + metric + "/" + LaneName(link),
                     kind);
  }
  return series_[slot - 1];
}

bool Recorder::WouldSample(std::uint64_t packet) const {
  return sampling_ && sample_base_.Fork(packet).NextDouble() < config_.sample_rate;
}

std::uint32_t Recorder::PacketBorn(std::uint64_t packet, std::uint32_t source,
                                   double now, bool measured) {
  if (!WouldSample(packet)) return kNotSampled;
  if (records_.size() >= config_.max_sampled_per_run) {
    ++sampling_skipped_;
    return kNotSampled;
  }
  PacketRecord record;
  record.packet = packet;
  record.source = source;
  record.born = now;
  record.measured = measured;
  records_.push_back(std::move(record));
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void Recorder::HopEnqueue(std::uint32_t rec, std::uint64_t link, double now,
                          bool service_now) {
  if (rec == kNotSampled) return;
  HopRecord hop;
  hop.link = link;
  hop.enqueue = now;
  if (service_now) hop.start = now;
  records_[rec].hops.push_back(hop);
  LaneName(link);  // resolve while the namer is still valid
}

void Recorder::HopServiceStart(std::uint32_t rec, double now) {
  if (rec == kNotSampled) return;
  DCN_ASSERT(!records_[rec].hops.empty());
  records_[rec].hops.back().start = now;
}

void Recorder::HopDepart(std::uint32_t rec, double now) {
  if (rec == kNotSampled) return;
  DCN_ASSERT(!records_[rec].hops.empty());
  records_[rec].hops.back().depart = now;
}

void Recorder::PacketDropped(std::uint32_t rec, std::uint64_t link,
                             double now) {
  if (rec == kNotSampled) return;
  HopRecord hop;
  hop.link = link;
  hop.enqueue = now;
  hop.start = now;
  hop.depart = now;
  hop.dropped = true;
  PacketRecord& record = records_[rec];
  record.hops.push_back(hop);
  record.delivered = false;
  record.completed = now;
  LaneName(link);
}

void Recorder::PacketDelivered(std::uint32_t rec, double now) {
  if (rec == kNotSampled) return;
  PacketRecord& record = records_[rec];
  record.delivered = true;
  record.completed = now;
}

void Recorder::Delivery(double latency, int hops) {
  if (!breakdown_.enabled) return;
  breakdown_.total.Add(latency);
  breakdown_.queueing.Add(latency -
                          static_cast<double>(hops) * breakdown_.service_time);
  breakdown_.hops.Add(hops);
}

void Recorder::LinkTransmit(std::uint64_t link, double now) {
  if (!timeseries_) return;
  Record(LinkSeries(tx_series_, link, "tx", SeriesKind::kSum), now, 1);
}

void Recorder::LinkQueueDepth(std::uint64_t link, double now, int depth) {
  if (!timeseries_) return;
  Record(LinkSeries(depth_series_, link, "queue_depth", SeriesKind::kMax), now,
         depth);
}

void Recorder::InFlight(double now, std::int64_t count) {
  if (!timeseries_) return;
  if (in_flight_series_ == 0) {
    in_flight_series_ =
        NewSeries(series_prefix_ + "/in_flight", SeriesKind::kMax);
  }
  Record(series_[in_flight_series_ - 1], now, count);
}

void Recorder::Flow(FlowKind kind, std::uint32_t flow, double bytes,
                    double value) {
  if (fct_summary_ && kind == FlowKind::kFct) {
    if (std::isfinite(value)) {
      fct_sketch_.Add(value);
    } else {
      ++unroutable_;  // see sim/fluid.cc: +inf marks an unroutable flow
    }
  }
  if (fct_) flows_.push_back(FlowRecord{kind, flow, bytes, value});
}

void Recorder::Finish() {
  // Flush the run's exact aggregates into the sharded registry — all values
  // are determined by (simulation inputs, flight config), so the merged
  // readouts stay reproducible at any thread count.
  static Counter& c_runs = GetCounter("flight/runs");
  static Counter& c_sampled = GetCounter("flight/sampled_packets");
  static Counter& c_skipped = GetCounter("flight/sampling_skipped");
  static Counter& c_flows = GetCounter("flight/flow_records");
  c_runs.Add(1);
  c_sampled.Add(records_.size());
  c_skipped.Add(sampling_skipped_);
  c_flows.Add(flows_.size());
  if (breakdown_.enabled && breakdown_.total.Count() > 0) {
    static Histogram& h_queueing = GetHistogram("flight/queueing_time");
    static Histogram& h_hops = GetHistogram("flight/serialization_hops");
    for (const auto& [value, weight] : breakdown_.hops.Buckets()) {
      h_hops.Add(value, static_cast<std::uint64_t>(weight));
    }
    // Queueing is continuous; the registry histogram gets one weighted entry
    // at the rounded mean (exact per-packet values live in the breakdown).
    h_queueing.Add(
        static_cast<std::int64_t>(std::llround(breakdown_.queueing.Mean())),
        breakdown_.queueing.Count());
  }
  if (fct_) {
    static Histogram& h_fct = GetHistogram("flight/fct_time");
    for (const FlowRecord& record : flows_) {
      if (record.kind != FlowKind::kFct || !std::isfinite(record.value)) {
        continue;
      }
      h_fct.Add(static_cast<std::int64_t>(std::llround(record.value)));
    }
  }
  if (fct_summary_) {
    static Counter& c_unroutable = GetCounter("flight/unroutable_flows");
    c_unroutable.Add(unroutable_);
    if (fct_sketch_.Count() > 0) {
      GetQuantileSketch("flight/fct").Merge(fct_sketch_);
    }
  }
  lane_namer_ = nullptr;  // must not outlive the simulator's scope
}

// ---------------------------------------------------------------------------
// RunScope
// ---------------------------------------------------------------------------

RunScope::RunScope(std::string_view sim, double duration,
                   std::size_t link_count,
                   std::function<std::string(std::uint64_t)> lane_namer) {
  nested_ = tl_active_run != nullptr;
  if (nested_) return;
  FlightState& state = State();
  std::lock_guard<std::mutex> lock{state.mutex};
  if (!state.enabled) return;
  auto recorder = std::unique_ptr<Recorder>(
      new Recorder{state.next_run++, std::string{sim}, duration, state.config,
                   link_count, std::move(lane_namer)});
  recorder_ = recorder.get();
  tl_active_run = recorder_;
  state.runs.push_back(std::move(recorder));
}

RunScope::~RunScope() {
  if (recorder_ == nullptr) return;
  recorder_->Finish();
  tl_active_run = nullptr;
}

// ---------------------------------------------------------------------------
// Snapshots and exporters
// ---------------------------------------------------------------------------

struct FlightAccess {
  static const std::vector<TimeSeriesRow>& Series(const Recorder& run) {
    return run.series_;
  }
  static RunSnapshot Snap(const Recorder& run) {
    RunSnapshot snap;
    snap.run = run.run_;
    snap.sim = run.sim_;
    snap.duration = run.duration_;
    snap.sampling_skipped = run.sampling_skipped_;
    snap.packets = run.records_;
    snap.flows = run.flows_;
    snap.breakdown = run.breakdown_;
    snap.fct_sketch = run.fct_sketch_;
    snap.unroutable = run.unroutable_;
    // Lanes actually touched by sampled hops, ascending link id.
    std::vector<bool> used(run.lane_names_.size(), false);
    for (const PacketRecord& packet : snap.packets) {
      for (const HopRecord& hop : packet.hops) {
        if (hop.link < used.size()) used[hop.link] = true;
      }
    }
    for (std::size_t link = 0; link < used.size(); ++link) {
      if (used[link] && !run.lane_names_[link].empty()) {
        snap.lanes.emplace_back(link, run.lane_names_[link]);
      }
    }
    return snap;
  }
};

std::vector<RunSnapshot> TakeRunsSnapshot() {
  FlightState& state = State();
  std::lock_guard<std::mutex> lock{state.mutex};
  std::vector<RunSnapshot> snapshots;
  snapshots.reserve(state.runs.size());
  for (const auto& run : state.runs) {
    snapshots.push_back(FlightAccess::Snap(*run));
  }
  return snapshots;
}

void WriteFctCsv(std::ostream& out, const std::vector<RunSnapshot>& runs) {
  out << "run,sim,kind,flow,bytes,finish_time,rate\n";
  for (const RunSnapshot& run : runs) {
    for (const FlowRecord& record : run.flows) {
      out << run.run << ',' << run.sim << ','
          << (record.kind == FlowKind::kFct ? "fct" : "rate") << ','
          << record.flow << ',' << record.bytes << ',';
      if (record.kind == FlowKind::kFct) {
        if (std::isfinite(record.value)) {
          out << record.value << ','
              << (record.value > 0 ? record.bytes / record.value : 0.0);
        } else {
          out << "inf,0";
        }
      } else {
        out << ',' << record.value;
      }
      out << '\n';
    }
  }
}

void WriteFctCsvFile(const std::string& path) {
  const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  WriteFile(path, "FCT", [&](std::ostream& out) { WriteFctCsv(out, runs); });
}

void WriteFctSummary(std::ostream& out, const std::vector<RunSnapshot>& runs) {
  Table table{{"run", "sim", "flows", "unroutable", "p50", "p90", "p99",
               "p999", "max"}};
  for (const RunSnapshot& run : runs) {
    const QuantileSketch& sketch = run.fct_sketch;
    if (sketch.Count() == 0 && run.unroutable == 0) continue;
    table.AddRow({Table::Cell(run.run), run.sim, Table::Cell(sketch.Count()),
                  Table::Cell(run.unroutable),
                  Table::Cell(sketch.Quantile(0.50), 4),
                  Table::Cell(sketch.Quantile(0.90), 4),
                  Table::Cell(sketch.Quantile(0.99), 4),
                  Table::Cell(sketch.Quantile(0.999), 4),
                  Table::Cell(sketch.Max(), 4)});
  }
  table.Print(out, "flight: FCT quantile summary (relative error <= " +
                       std::to_string(QuantileSketch::kDefaultAccuracy) + ")");
}

void WriteFctSummaryFile(const std::string& path) {
  const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  WriteFile(path, "FCT summary",
            [&](std::ostream& out) { WriteFctSummary(out, runs); });
}

namespace detail {

void ResetRuns() {
  FlightState& state = State();
  std::lock_guard<std::mutex> lock{state.mutex};
  DCN_REQUIRE(tl_active_run == nullptr,
              "flight recorder reset inside an active run");
  state.runs.clear();
  state.next_run = 0;
}

}  // namespace detail

}  // namespace dcn::obs::flight

namespace dcn::obs {

std::vector<TimeSeriesRow> TakeTimeSeriesSnapshot() {
  flight::FlightState& state = flight::State();
  std::lock_guard<std::mutex> lock{state.mutex};
  std::vector<TimeSeriesRow> rows;
  for (const auto& run : state.runs) {
    const std::vector<TimeSeriesRow>& series =
        flight::FlightAccess::Series(*run);
    rows.insert(rows.end(), series.begin(), series.end());
  }
  return rows;
}

}  // namespace dcn::obs
