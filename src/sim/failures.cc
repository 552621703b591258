#include "sim/failures.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace dcn::sim {

graph::FailureSet RandomFailures(const topo::Topology& net,
                                 double server_fraction, double switch_fraction,
                                 double link_fraction, Rng& rng) {
  DCN_REQUIRE(server_fraction >= 0 && server_fraction <= 1,
              "server_fraction must be in [0,1]");
  DCN_REQUIRE(switch_fraction >= 0 && switch_fraction <= 1,
              "switch_fraction must be in [0,1]");
  DCN_REQUIRE(link_fraction >= 0 && link_fraction <= 1,
              "link_fraction must be in [0,1]");
  const graph::Graph& g = net.Network();
  graph::FailureSet failures{g};
  for (graph::NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
       ++node) {
    const double p = g.IsServer(node) ? server_fraction : switch_fraction;
    if (rng.NextBernoulli(p)) failures.KillNode(node);
  }
  for (graph::EdgeId edge = 0; static_cast<std::size_t>(edge) < g.EdgeCount();
       ++edge) {
    if (rng.NextBernoulli(link_fraction)) failures.KillEdge(edge);
  }
  return failures;
}

std::vector<LinkCapOp> ExpandFaultSchedule(const graph::Graph& graph,
                                           const FaultSchedule& schedule,
                                           int default_capacity) {
  DCN_REQUIRE(default_capacity >= 1, "default capacity must be >= 1");
  std::vector<FaultEvent> events = schedule.events;
  // Stable by time: same-time events keep schedule order, so a later
  // schedule entry deterministically wins a same-time same-link conflict.
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  std::vector<LinkCapOp> ops;
  const auto edge_count = static_cast<std::int64_t>(graph.EdgeCount());
  const auto node_count = static_cast<std::int64_t>(graph.NodeCount());
  for (const FaultEvent& event : events) {
    DCN_REQUIRE(event.time >= 0.0, "fault time must be >= 0");
    const auto push_edge = [&](std::int64_t edge, std::int32_t capacity) {
      const auto link = static_cast<std::uint64_t>(2 * edge);
      ops.push_back({event.time, link, capacity});
      ops.push_back({event.time, link + 1, capacity});
    };
    switch (event.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkRestore:
      case FaultKind::kLinkDegrade: {
        DCN_REQUIRE(event.entity >= 0 && event.entity < edge_count,
                    "fault edge id out of range");
        std::int32_t capacity = 0;
        if (event.kind == FaultKind::kLinkRestore) {
          capacity = default_capacity;
        } else if (event.kind == FaultKind::kLinkDegrade) {
          DCN_REQUIRE(event.capacity >= 0 &&
                          event.capacity <= default_capacity,
                      "degrade capacity outside [0, queue_capacity]");
          capacity = event.capacity;
        }
        push_edge(event.entity, capacity);
        break;
      }
      case FaultKind::kNodeDown: {
        DCN_REQUIRE(event.entity >= 0 && event.entity < node_count,
                    "fault node id out of range");
        for (std::int64_t edge = 0; edge < edge_count; ++edge) {
          const auto [u, v] =
              graph.Endpoints(static_cast<graph::EdgeId>(edge));
          if (u == event.entity || v == event.entity) push_edge(edge, 0);
        }
        break;
      }
    }
  }
  return ops;
}

std::vector<DetectionOutcome> MatchDetections(
    const graph::Graph& graph, const FaultSchedule& schedule,
    const obs::monitor::MonitorResult& result) {
  using obs::monitor::AlertKind;
  using obs::monitor::EntityKind;
  std::vector<DetectionOutcome> outcomes;
  outcomes.reserve(schedule.events.size());
  for (const FaultEvent& fault : schedule.events) {
    const bool want_clear = fault.kind == FaultKind::kLinkRestore;
    const auto affected = [&](const obs::monitor::EntityInfo& entity) {
      if (fault.kind == FaultKind::kNodeDown) {
        if (entity.kind == EntityKind::kNode) {
          return entity.key == fault.entity;
        }
        const auto [u, v] =
            graph.Endpoints(static_cast<graph::EdgeId>(entity.key / 2));
        return u == fault.entity || v == fault.entity;
      }
      if (entity.kind == EntityKind::kLink) {
        return entity.key / 2 == fault.entity;
      }
      const auto [u, v] =
          graph.Endpoints(static_cast<graph::EdgeId>(fault.entity));
      return entity.key == u || entity.key == v;
    };
    DetectionOutcome outcome;
    outcome.fault = fault;
    for (const obs::monitor::Alert& alert : result.alerts) {
      if (alert.time < fault.time) continue;
      if ((alert.kind == AlertKind::kClear) != want_clear) continue;
      if (!affected(result.entities[alert.entity])) continue;
      outcome.detected = true;
      outcome.detect_time = alert.time;
      outcome.ttd = alert.time - fault.time;
      break;  // alerts are in window order: first match is earliest
    }
    outcomes.push_back(outcome);
  }
  return outcomes;
}

LinkHealthHarness::LinkHealthHarness(const graph::Graph& graph,
                                     std::size_t link_count,
                                     const obs::monitor::MonitorConfig& config,
                                     double duration) {
  if (!config.enabled) return;
  DCN_REQUIRE(duration > 0.0, "monitored run needs duration > 0");
  on_ = true;
  width_ = config.window_width;
  window_count_ = static_cast<std::uint32_t>(
      std::ceil(duration / config.window_width));
  link_count_ = link_count;
  monitor_ = std::make_unique<obs::monitor::HealthMonitor>(config);
  link_tail_.resize(link_count);
  for (std::size_t link = 0; link < link_count; ++link) {
    const auto [u, v] =
        graph.Endpoints(static_cast<graph::EdgeId>(link / 2));
    link_tail_[link] = link % 2 == 0 ? u : v;
    monitor_->AddEntity(obs::monitor::EntityKind::kLink,
                        static_cast<std::int64_t>(link));
  }
  switch_entity_.assign(graph.NodeCount(), ~0u);
  for (graph::NodeId node = 0;
       static_cast<std::size_t>(node) < graph.NodeCount(); ++node) {
    if (!graph.IsSwitch(node)) continue;
    switch_entity_[node] =
        monitor_->AddEntity(obs::monitor::EntityKind::kNode, node);
  }
  monitor_->AddSignal("tx", obs::monitor::SignalDirection::kDrop);
  monitor_->AddSignal("drops", obs::monitor::SignalDirection::kSpike);
  monitor_->Seal(window_count_);
  cur_tx_.assign(link_count, 0);
  cur_drop_.assign(link_count, 0);
  values_.assign(2, std::vector<std::int64_t>(monitor_->EntityCount(), 0));
}

void LinkHealthHarness::AdvanceTo(std::uint32_t window) {
  const std::uint32_t target = std::min(window, window_count_);
  while (monitor_->WindowsStepped() < target) StepCurrent();
}

void LinkHealthHarness::CountTx(std::uint32_t window, std::uint64_t link) {
  if (window >= window_count_) return;
  ++cur_tx_[link];
}

void LinkHealthHarness::CountDrop(std::uint32_t window, std::uint64_t link) {
  if (window >= window_count_) return;
  ++cur_drop_[link];
}

void LinkHealthHarness::StepCurrent() {
  StepFrom(cur_tx_.data(), cur_drop_.data());
  std::fill(cur_tx_.begin(), cur_tx_.end(), 0);
  std::fill(cur_drop_.begin(), cur_drop_.end(), 0);
}

void LinkHealthHarness::StepFrom(const std::uint32_t* tx_row,
                                 const std::uint32_t* drop_row) {
  const std::uint32_t window = monitor_->WindowsStepped();
  std::fill(values_[0].begin(), values_[0].end(), 0);
  std::fill(values_[1].begin(), values_[1].end(), 0);
  std::uint64_t drops = 0;
  for (std::size_t link = 0; link < link_count_; ++link) {
    values_[0][link] = tx_row[link];
    values_[1][link] = drop_row[link];
    drops += drop_row[link];
    const std::uint32_t entity = switch_entity_[link_tail_[link]];
    if (entity != ~0u) {
      values_[0][entity] += tx_row[link];
      values_[1][entity] += drop_row[link];
    }
  }
  monitor_->AddDrops(window, drops);
  monitor_->StepWindow(values_);
}

std::uint32_t LinkHealthHarness::Stepped() const {
  return monitor_->WindowsStepped();
}

void LinkHealthHarness::AddDelivery(double time, double latency) {
  monitor_->AddDelivery(WindowIndex(time), latency);
}

obs::monitor::MonitorResult LinkHealthHarness::Finish() {
  if (!on_) return {};
  while (monitor_->WindowsStepped() < window_count_) StepCurrent();
  return monitor_->TakeResult();
}

}  // namespace dcn::sim
