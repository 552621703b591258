#include "sim/flowsim.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/sketch.h"
#include "sim/fill.h"

namespace dcn::sim {

FlowSimResult MaxMinFairRatesWithDemands(const graph::Graph& graph,
                                         const std::vector<routing::Route>& routes,
                                         const std::vector<double>& demands,
                                         double link_capacity,
                                         bool count_empty_as_zero) {
  DCN_REQUIRE(link_capacity > 0, "link capacity must be positive");
  DCN_REQUIRE(demands.size() == routes.size(),
              "need exactly one demand per route");
  for (double demand : demands) {
    DCN_REQUIRE(demand > 0, "flow demands must be positive");
  }

  OBS_SPAN("flowsim/maxmin");
  // Per-thread run nesting means a call made inside another simulator's run
  // records nothing here.
  obs::flight::RunScope flight_run{"flowsim", /*duration=*/0.0};
  FlowSimResult result;
  const std::vector<char> every_flow(routes.size(), 1);
  ProgressiveFill fill{graph, routes, demands, link_capacity, every_flow};
  fill.Fill(every_flow, result.rates);

  double min_rate = std::numeric_limits<double>::infinity();
  double max_rate = 0.0;
  double sum = 0.0;
  double sum_squares = 0.0;
  std::size_t counted = 0;
  for (std::size_t f = 0; f < routes.size(); ++f) {
    if (routes[f].Empty() && !count_empty_as_zero) continue;
    sum += result.rates[f];
    sum_squares += result.rates[f] * result.rates[f];
    min_rate = std::min(min_rate, result.rates[f]);
    max_rate = std::max(max_rate, result.rates[f]);
    ++counted;
  }
  result.aggregate = sum;
  result.min_rate = counted > 0 ? min_rate : 0.0;
  result.max_rate = max_rate;
  result.mean_rate = counted > 0 ? sum / static_cast<double>(counted) : 0.0;
  result.abt = static_cast<double>(counted) * result.min_rate;
  result.jain_fairness =
      (counted > 0 && sum_squares > 0)
          ? (sum * sum) / (static_cast<double>(counted) * sum_squares)
          : 0.0;
  if (obs::flight::Recorder* fr = flight_run.recorder();
      fr != nullptr && fr->FctOn()) {
    for (std::size_t f = 0; f < routes.size(); ++f) {
      fr->Flow(obs::flight::FlowKind::kRate, static_cast<std::uint32_t>(f),
               /*bytes=*/0.0, result.rates[f]);
    }
  }
  // Bounded rate-distribution telemetry, top-level calls only. Fluid's
  // per-recomputation fills never come through here: their rates are
  // transient, and the completion times fluid reports flow through its own
  // sinks.
  if (!flight_run.nested()) {
    obs::QuantileSketch rates;
    for (std::size_t f = 0; f < routes.size(); ++f) {
      if (routes[f].Empty() && !count_empty_as_zero) continue;
      rates.Add(result.rates[f]);
    }
    static obs::SketchMetric& s_rates = obs::GetQuantileSketch("flowsim/rates");
    s_rates.Merge(rates);
  }
  return result;
}

FlowSimResult MaxMinFairRates(const graph::Graph& graph,
                              const std::vector<routing::Route>& routes,
                              double link_capacity, bool count_empty_as_zero) {
  const std::vector<double> unbounded(routes.size(), kUnboundedDemand);
  return MaxMinFairRatesWithDemands(graph, routes, unbounded, link_capacity,
                                    count_empty_as_zero);
}

}  // namespace dcn::sim
