// Failure injection for the fault-tolerance experiments.
//
// Two layers:
//   * RandomFailures (F7): a static FailureSet drawn before the run starts —
//     topology-level kills consumed by the routing / connectivity benches.
//   * FaultSchedule (F24): deterministic *mid-run* fault events at scheduled
//     sim times, consumed by the packet / broadcast / fluid simulators. Link
//     and switch kills and capacity degrades take effect while packets are in
//     flight, giving the online health monitor (obs/monitor.h) something to
//     detect and letting us measure time-to-detect and recovery.
//
// FaultSchedule semantics in the queueing simulators are drain-then-dead: a
// fault changes the per-directed-link queue capacity (kill -> 0) from its
// scheduled time onward. Capacity is consulted only at enqueue, so packets
// already queued on a dying link still transmit; nothing in flight is
// cancelled and the event order is untouched. An empty schedule therefore
// leaves the simulation byte-identical to a run without fault support.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "topology/topology.h"

namespace dcn::sim {

// Kills each server / switch / link independently with the given
// probabilities (fractions in [0, 1]). Deterministic given rng.
graph::FailureSet RandomFailures(const topo::Topology& net,
                                 double server_fraction, double switch_fraction,
                                 double link_fraction, Rng& rng);

// ---------------------------------------------------------------------------
// Mid-run fault schedule.

enum class FaultKind : std::uint8_t {
  kLinkDown,     // entity = EdgeId; both directed links 2e / 2e+1 die
  kLinkDegrade,  // entity = EdgeId; both directions clamp to `capacity`
  kLinkRestore,  // entity = EdgeId; both directions back to full capacity
  kNodeDown,     // entity = NodeId; every incident directed link dies
};

struct FaultEvent {
  double time = 0.0;
  FaultKind kind = FaultKind::kLinkDown;
  std::int64_t entity = 0;  // EdgeId for link faults, NodeId for kNodeDown
  int capacity = 0;         // kLinkDegrade only: new queue capacity (>= 0)
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool Empty() const { return events.empty(); }

  FaultSchedule& KillLink(double time, graph::EdgeId edge) {
    events.push_back({time, FaultKind::kLinkDown, edge, 0});
    return *this;
  }
  FaultSchedule& DegradeLink(double time, graph::EdgeId edge, int capacity) {
    events.push_back({time, FaultKind::kLinkDegrade, edge, capacity});
    return *this;
  }
  FaultSchedule& RestoreLink(double time, graph::EdgeId edge) {
    events.push_back({time, FaultKind::kLinkRestore, edge, 0});
    return *this;
  }
  FaultSchedule& KillNode(double time, graph::NodeId node) {
    events.push_back({time, FaultKind::kNodeDown, node, 0});
    return *this;
  }
};

// One expanded capacity change on one directed link. The simulators apply
// these in (time, sequence) order; sequence is the expansion order, so a
// later schedule entry wins ties on the same link at the same time.
struct LinkCapOp {
  double time = 0.0;
  std::uint64_t link = 0;      // directed-link id (2 * edge + direction)
  std::int32_t capacity = 0;   // new queue capacity, 0 = dead
};

// Expands a schedule against a concrete graph into per-directed-link capacity
// ops sorted by (time, schedule order). `default_capacity` is the simulator's
// configured queue capacity (what kLinkRestore restores to). Validates every
// event: time >= 0, entity in range, 0 <= degrade capacity <= default.
std::vector<LinkCapOp> ExpandFaultSchedule(const graph::Graph& graph,
                                           const FaultSchedule& schedule,
                                           int default_capacity);

// ---------------------------------------------------------------------------
// Detection outcome: pairing scheduled faults with the monitor's alert log.

struct DetectionOutcome {
  FaultEvent fault;
  bool detected = false;
  double detect_time = 0.0;  // earliest matching alert at time >= fault.time
  double ttd = 0.0;          // detect_time - fault.time (when detected)
};

// Matches each scheduled fault against the alert log of a monitored run over
// the same graph. A fault matches an alert when the alert's entity is
// affected by the fault: for link faults the two directed links and the two
// endpoint nodes; for kNodeDown the node itself plus every incident directed
// link. Kill/degrade events match kFire alerts; kLinkRestore matches kClear.
std::vector<DetectionOutcome> MatchDetections(
    const graph::Graph& graph, const FaultSchedule& schedule,
    const obs::monitor::MonitorResult& result);

// ---------------------------------------------------------------------------
// Shared simulator harness: registers the standard per-link / per-switch
// signal grid with a HealthMonitor and buffers one window of counts.
//
// Entity order (identical in every engine, serial or sharded): directed
// links 0..L-1 first (entity index == directed-link id), then every switch
// in ascending node id. Signals: "tx" (kDrop — departures collapsing) and
// "drops" (kSpike — enqueue rejections). Switch rows aggregate the directed
// links the switch transmits on.
class LinkHealthHarness {
 public:
  // Inactive harness (config.enabled == false) costs nothing per event.
  LinkHealthHarness(const graph::Graph& graph, std::size_t link_count,
                    const obs::monitor::MonitorConfig& config, double duration);

  bool on() const { return on_; }
  std::uint32_t window_count() const { return window_count_; }
  double width() const { return width_; }

  // Window index for an event time (may be >= window_count past the grid).
  std::uint32_t WindowIndex(double time) const {
    return obs::WindowOf(time, width_);
  }

  // Serial engines: bump the current window's counters for one event.
  // `window` must be this event's WindowIndex(); counts past the grid are
  // ignored. AdvanceTo() steps every window that ends at or before `window`.
  void AdvanceTo(std::uint32_t window);
  void CountTx(std::uint32_t window, std::uint64_t link);
  void CountDrop(std::uint32_t window, std::uint64_t link);

  // Steps the next window from per-link tx / drop rows, folding them into
  // the link rows, the switch rows and the window's drop total. The sharded
  // engine's member 0 calls it between barriers with the rows its members
  // filled; serial engines reach it through AdvanceTo with their own rows.
  void StepFrom(const std::uint32_t* tx_row, const std::uint32_t* drop_row);
  std::uint32_t Stepped() const;

  // Measured-delivery recovery aggregates (identical call order in both
  // engines: the sharded engine's member 0 replays merged deliveries in
  // (time, key) order, which is the serial delivery order).
  void AddDelivery(double time, double latency);

  // Flushes remaining windows and returns the result (harness is spent).
  obs::monitor::MonitorResult Finish();

 private:
  void StepCurrent();

  bool on_ = false;
  double width_ = 0.0;
  std::uint32_t window_count_ = 0;
  std::size_t link_count_ = 0;
  std::vector<std::uint32_t> switch_entity_;  // node -> entity index or ~0u
  std::vector<graph::NodeId> link_tail_;      // directed link -> transmitter
  std::vector<std::uint32_t> cur_tx_, cur_drop_;  // serial per-link window row
  std::vector<std::vector<std::int64_t>> values_;  // [signal][entity] scratch
  std::unique_ptr<obs::monitor::HealthMonitor> monitor_;
};

}  // namespace dcn::sim
