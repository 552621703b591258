#include "sim/fill.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "graph/workspace.h"
#include "obs/obs.h"

namespace dcn::sim {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kUnused = std::numeric_limits<std::uint32_t>::max();

// Index of the first smallest entry of `values` (NaN-free), or values.size()
// if it is empty. The bottleneck scan is most of a fill's work, so it runs
// on two-double vectors (GCC/Clang vector extension; minpd on x86-64), which
// made whole fluid calls on F23-sized coflows 1.5-2x faster than a scalar
// scan. `b < a ? b : a` is the scalar min lane by lane, so each 8-entry
// block minimum is exact; only the first block whose minimum beats every
// earlier one is then walked entry by entry.
std::size_t FirstMinimum(const std::vector<double>& values) {
  using Pair = double __attribute__((vector_size(16)));
  const double* v = values.data();
  const std::size_t n = values.size();
  double best = kInfinity;
  std::size_t from = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Pair a, b, c, d;
    std::memcpy(&a, v + i, sizeof a);
    std::memcpy(&b, v + i + 2, sizeof b);
    std::memcpy(&c, v + i + 4, sizeof c);
    std::memcpy(&d, v + i + 6, sizeof d);
    a = b < a ? b : a;
    c = d < c ? d : c;
    a = c < a ? c : a;
    const double block = a[1] < a[0] ? a[1] : a[0];
    if (block < best) {
      best = block;
      from = i;
    }
  }
  for (; i < n; ++i) {
    if (v[i] < best) {
      best = v[i];
      from = i;
    }
  }
  while (from < n && !(v[from] == best)) ++from;
  return from;
}

}  // namespace

ProgressiveFill::ProgressiveFill(const graph::Graph& graph,
                                 const std::vector<routing::Route>& routes,
                                 const std::vector<double>& demands,
                                 double link_capacity,
                                 const std::vector<char>& include)
    : demands_(demands),
      link_capacity_(link_capacity),
      kind_(routes.size(), Kind::kNone),
      link_begin_(routes.size() + 1, 0),
      fixed_(routes.size(), 1) {
  DCN_REQUIRE(link_capacity > 0, "link capacity must be positive");
  DCN_ASSERT(demands.size() == routes.size() && include.size() == routes.size());
  const graph::CsrView& csr = graph.Csr();
  graph::EpochMarks used_edges;
  std::vector<std::uint64_t> route_links;
  std::vector<std::uint64_t> directed;  // every linked flow's links, flow order
  for (std::size_t f = 0; f < routes.size(); ++f) {
    if (include[f] && !routes[f].Empty()) {
      if (routes[f].LinkCount() == 0) {
        kind_[f] = Kind::kSelf;
      } else {
        routing::RouteDirectedLinksInto(csr, routes[f], used_edges, route_links);
        directed.insert(directed.end(), route_links.begin(), route_links.end());
        kind_[f] = Kind::kLinked;
        by_demand_.push_back(static_cast<std::uint32_t>(f));
      }
    }
    link_begin_[f + 1] = static_cast<std::uint32_t>(directed.size());
  }

  // Dense local link ids, numbered in ascending directed-link id order.
  std::vector<std::uint32_t> local(graph.EdgeCount() * 2, kUnused);
  for (const std::uint64_t link : directed) local[link] = 0;
  std::uint32_t link_count = 0;
  for (std::uint32_t& id : local) {
    if (id != kUnused) id = link_count++;
  }
  links_.resize(directed.size());
  flow_begin_.assign(link_count + 1, 0);
  for (std::size_t i = 0; i < directed.size(); ++i) {
    links_[i] = local[directed[i]];
    ++flow_begin_[links_[i] + 1];
  }
  for (std::uint32_t l = 0; l < link_count; ++l) {
    flow_begin_[l + 1] += flow_begin_[l];
  }
  flows_.resize(directed.size());
  std::vector<std::uint32_t> next(flow_begin_.begin(), flow_begin_.end() - 1);
  for (const std::uint32_t f : by_demand_) {  // still ascending by index
    for (std::uint32_t i = link_begin_[f]; i < link_begin_[f + 1]; ++i) {
      flows_[next[links_[i]]++] = f;
    }
  }
  std::stable_sort(by_demand_.begin(), by_demand_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return demands_[a] < demands_[b];
                   });

  capacity_.resize(link_count);
  active_.assign(link_count, 0);
  slot_.resize(link_count);
}

void ProgressiveFill::Freeze(std::uint32_t flow, double rate,
                             std::vector<double>& rates) {
  rates[flow] = rate;
  fixed_[flow] = 1;
  --unfixed_;
  for (std::uint32_t i = link_begin_[flow]; i < link_begin_[flow + 1]; ++i) {
    const std::uint32_t link = links_[i];
    double& capacity = capacity_[link];
    capacity -= rate;
    if (capacity < 0) capacity = 0;  // numeric guard
    double& share = live_share_[slot_[link]];
    if (--active_[link] == 0) {
      share = kInfinity;
      ++dead_links_;
    } else {
      share = capacity / static_cast<double>(active_[link]);
    }
  }
}

void ProgressiveFill::Fill(const std::vector<char>& live,
                           std::vector<double>& rates) {
  rates.assign(kind_.size(), 0.0);
  unfixed_ = 0;
  // active_ is all zero between fills: a fill ends with every flow frozen.
  for (std::uint32_t f = 0; f < kind_.size(); ++f) {
    fixed_[f] = 1;
    if (!live[f]) continue;
    if (kind_[f] == Kind::kSelf) {
      // Unconstrained loopback: one link-capacity worth of bandwidth.
      rates[f] = std::min(link_capacity_, demands_[f]);
    } else if (kind_[f] == Kind::kLinked) {
      fixed_[f] = 0;
      ++unfixed_;
      for (std::uint32_t i = link_begin_[f]; i < link_begin_[f + 1]; ++i) {
        if (active_[links_[i]]++ == 0) capacity_[links_[i]] = link_capacity_;
      }
    }
  }
  live_links_.clear();
  live_share_.clear();
  dead_links_ = 0;
  for (std::uint32_t link = 0; link < active_.size(); ++link) {
    if (active_[link] == 0) continue;
    slot_[link] = static_cast<std::uint32_t>(live_links_.size());
    live_links_.push_back(link);
    live_share_.push_back(capacity_[link] / static_cast<double>(active_[link]));
  }

  std::uint64_t rounds = 0;
  std::size_t cheapest = 0;  // first unfixed flow in by_demand_ order
  while (unfixed_ > 0) {
    ++rounds;
    // Bottleneck link: smallest fair share, the lowest link id on ties.
    const std::size_t best = FirstMinimum(live_share_);
    DCN_ASSERT(best < live_share_.size() && live_share_[best] < kInfinity);
    const double best_share = live_share_[best];

    // Demand-limited flows freeze first: any unfixed flow whose demand is at
    // most the current fair share stops at its demand, releasing capacity
    // for everyone else. Only if no flow is demand-limited does the
    // bottleneck link freeze its flows at the fair share. Both freeze in
    // ascending flow index, which fixes each link's subtraction order.
    while (fixed_[by_demand_[cheapest]]) ++cheapest;
    if (demands_[by_demand_[cheapest]] <= best_share) {
      batch_.clear();
      for (std::size_t j = cheapest;
           j < by_demand_.size() && demands_[by_demand_[j]] <= best_share; ++j) {
        if (!fixed_[by_demand_[j]]) batch_.push_back(by_demand_[j]);
      }
      std::sort(batch_.begin(), batch_.end());
      for (const std::uint32_t f : batch_) Freeze(f, demands_[f], rates);
    } else {
      const std::uint32_t link = live_links_[best];
      for (std::uint32_t i = flow_begin_[link]; i < flow_begin_[link + 1]; ++i) {
        if (!fixed_[flows_[i]]) Freeze(flows_[i], best_share, rates);
      }
    }

    // Drop the drained links once they are half the scan; compaction keeps
    // the ascending order that breaks ties.
    if (2 * dead_links_ > live_links_.size()) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < live_links_.size(); ++i) {
        const std::uint32_t link = live_links_[i];
        if (active_[link] == 0) continue;
        slot_[link] = static_cast<std::uint32_t>(kept);
        live_links_[kept] = link;
        live_share_[kept] = live_share_[i];
        ++kept;
      }
      live_links_.resize(kept);
      live_share_.resize(kept);
      dead_links_ = 0;
    }
  }

  // Rounds per fill, deterministic per (graph, routes, demands, live set).
  // Each round scans the live links for the bottleneck. A (share, link) heap
  // with lazy invalidation, one push per link update, measured 3-9x slower
  // than this scan on F23-sized coflows (ABCCC(4,3,3) and BCube(4,3), 32
  // workers, gcc 12.2 -O3, 4-vCPU x86-64), so the fill stays a scan.
  static obs::Counter& c_calls = obs::GetCounter("flowsim/calls");
  static obs::Counter& c_rounds = obs::GetCounter("flowsim/bottleneck_rounds");
  static obs::Histogram& h_rounds = obs::GetHistogram("flowsim/rounds_per_call");
  c_calls.Add(1);
  c_rounds.Add(rounds);
  h_rounds.Add(static_cast<std::int64_t>(rounds));
}

}  // namespace dcn::sim
