#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/error.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/sketch.h"
#include "sim/fill.h"

namespace dcn::sim {

FluidResult FluidCompletionTimes(const graph::Graph& graph,
                                 const std::vector<routing::Route>& routes,
                                 const std::vector<double>& bytes,
                                 double link_capacity) {
  return FluidCompletionTimes(graph, routes, bytes, FaultSchedule{},
                              link_capacity);
}

FluidResult FluidCompletionTimes(const graph::Graph& graph,
                                 const std::vector<routing::Route>& routes,
                                 const std::vector<double>& bytes,
                                 const FaultSchedule& faults,
                                 double link_capacity) {
  DCN_REQUIRE(routes.size() == bytes.size(), "need one byte count per flow");
  for (double b : bytes) {
    DCN_REQUIRE(b > 0, "flow sizes must be positive");
  }

  OBS_SPAN("fluid/run");
  // The fills below open no run of their own: only fluid's per-flow
  // completion times are recorded, not every recomputation's rates.
  obs::flight::RunScope flight_run{"fluid", /*duration=*/0.0};
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  FluidResult result;
  result.finish_time.assign(routes.size(), kInfinity);

  std::vector<double> remaining = bytes;
  // Unroutable flows never finish; self-flows finish at full NIC rate.
  std::vector<char> live(routes.size(), 0);
  std::size_t active = 0;
  std::uint64_t unroutable = 0;
  for (std::size_t f = 0; f < routes.size(); ++f) {
    if (routes[f].Empty()) {
      ++unroutable;
    } else {
      live[f] = 1;
      ++active;
    }
  }

  static obs::Counter& c_runs = obs::GetCounter("fluid/runs");
  static obs::Counter& c_recomputations =
      obs::GetCounter("fluid/rate_recomputations");
  static obs::Counter& c_unroutable =
      obs::GetCounter("fluid/unroutable_flows");
  c_runs.Add(1);
  c_unroutable.Add(unroutable);

  // Mid-run faults, fluid granularity: kLinkDown / kNodeDown terminate the
  // active flows crossing the dead element at the scheduled instant and hand
  // their capacity to the survivors; degrade/restore are queueing-level and
  // ignored here. Applied cumulatively in time order.
  std::vector<FaultEvent> fault_events = faults.events;
  std::stable_sort(fault_events.begin(), fault_events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  std::size_t fault_cursor = 0;
  graph::FailureSet dead{graph};
  const auto crosses_dead = [&](const routing::Route& route) {
    for (std::size_t h = 0; h < route.hops.size(); ++h) {
      if (dead.NodeDead(route.hops[h])) return true;
      if (h + 1 < route.hops.size() &&
          dead.EdgeDead(graph.Csr().FindEdge(route.hops[h],
                                             route.hops[h + 1]))) {
        return true;
      }
    }
    return false;
  };
  // Applies every fault due at or before `now` and terminates the live flows
  // crossing a dead element; returns true when that shrank the live set
  // (degrades, restores and kills no live route crosses leave it alone).
  const auto apply_due_faults = [&](double now) {
    bool killed = false;
    while (fault_cursor < fault_events.size() &&
           fault_events[fault_cursor].time <= now) {
      const FaultEvent& event = fault_events[fault_cursor++];
      DCN_REQUIRE(event.time >= 0.0, "fault time must be >= 0");
      if (event.kind == FaultKind::kLinkDown) {
        dead.KillEdge(static_cast<graph::EdgeId>(event.entity));
        killed = true;
      } else if (event.kind == FaultKind::kNodeDown) {
        dead.KillNode(static_cast<graph::NodeId>(event.entity));
        killed = true;
      }
    }
    if (!killed) return false;
    const std::uint64_t before = result.killed_flows;
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (!live[f] || !crosses_dead(routes[f])) continue;
      live[f] = 0;
      --active;
      ++result.killed_flows;
    }
    return result.killed_flows > before;
  };

  // One kernel for the whole drain: routes are resolved (and validated) for
  // the flows live at the first recomputation, and each recomputation is a
  // fresh fill over the live set. Rates change only when that set does, so
  // there are at most F fills for F flows.
  const std::vector<double> unbounded(routes.size(), kUnboundedDemand);
  std::optional<ProgressiveFill> fill;
  std::vector<double> rates;
  bool live_set_changed = true;
  double now = 0.0;
  apply_due_faults(now);
  while (active > 0) {
    if (live_set_changed) {
      OBS_SPAN("flowsim/maxmin");
      if (!fill) fill.emplace(graph, routes, unbounded, link_capacity, live);
      fill->Fill(live, rates);
      ++result.rate_recomputations;
      live_set_changed = false;
    }

    // Next completion: smallest remaining/rate among active flows.
    double step = kInfinity;
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (!live[f]) continue;
      DCN_ASSERT(rates[f] > 0);
      step = std::min(step, remaining[f] / rates[f]);
    }
    DCN_ASSERT(step < kInfinity);

    // A fault before the next completion preempts it: drain to the fault
    // instant and apply it; the rates stand unless it killed a live flow.
    const double fault_time = fault_cursor < fault_events.size()
                                  ? fault_events[fault_cursor].time
                                  : kInfinity;
    if (fault_time < now + step) {
      const double partial = std::max(0.0, fault_time - now);
      for (std::size_t f = 0; f < routes.size(); ++f) {
        if (live[f]) remaining[f] -= rates[f] * partial;
      }
      now = std::max(now, fault_time);
      live_set_changed = apply_due_faults(now);
      continue;
    }
    now += step;

    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (!live[f]) continue;
      remaining[f] -= rates[f] * step;
      if (remaining[f] <= 1e-9 * bytes[f]) {
        live[f] = 0;
        --active;
        live_set_changed = true;
        result.finish_time[f] = now;
        result.makespan = std::max(result.makespan, now);
      }
    }
  }
  c_recomputations.Add(static_cast<std::uint64_t>(result.rate_recomputations));
  if (obs::flight::Recorder* fr = flight_run.recorder();
      fr != nullptr && fr->FctOn()) {
    for (std::size_t f = 0; f < routes.size(); ++f) {
      fr->Flow(obs::flight::FlowKind::kFct, static_cast<std::uint32_t>(f),
               bytes[f], result.finish_time[f]);
    }
  }
  // Always-on FCT distribution. Unroutable flows carry +inf finish times and
  // would poison a quantile readout, so they are counted above
  // (fluid/unroutable_flows) and excluded here.
  if (!flight_run.nested()) {
    obs::QuantileSketch fct;
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (std::isfinite(result.finish_time[f])) fct.Add(result.finish_time[f]);
    }
    static obs::SketchMetric& s_fct = obs::GetQuantileSketch("fluid/fct");
    s_fct.Merge(fct);
  }
  return result;
}

double CoflowCompletionTime(const FluidResult& result,
                            const std::vector<std::size_t>& members) {
  DCN_REQUIRE(!members.empty(), "coflow needs at least one member");
  double completion = 0.0;
  for (std::size_t member : members) {
    DCN_REQUIRE(member < result.finish_time.size(), "member index out of range");
    completion = std::max(completion, result.finish_time[member]);
  }
  return completion;
}

}  // namespace dcn::sim
