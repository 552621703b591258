// Directed-link state shared by the packet-level simulators (packetsim.cc,
// broadcast_sim.cc): FIFO queues, lane names and the post-run transmit folds.
// Directed link 2e + d runs edge e first -> second endpoint (d = 0) or back.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "obs/rollup.h"
#include "obs/sketch.h"

namespace dcn::sim {

// Per-directed-link FIFO output queues: one slab of queue_capacity slots per
// link plus flat head/size/transmitted arrays, so no allocation after
// construction and no pointer chasing when a link departs. Callers never push
// onto a full queue (a link whose capacity a fault lowers only drains).
class RingLinkStore {
 public:
  RingLinkStore(std::size_t links, int capacity)
      : capacity_(static_cast<std::size_t>(capacity)),
        slots_(links * capacity_),
        head_(links, 0),
        size_(links, 0),
        transmitted_(links, 0) {}

  std::size_t LinkCount() const { return head_.size(); }
  int Size(std::size_t link) const { return static_cast<int>(size_[link]); }
  bool Empty(std::size_t link) const { return size_[link] == 0; }
  // Item at the queue head (in service). Link must be non-empty.
  std::uint32_t Front(std::size_t link) const {
    return slots_[link * capacity_ + head_[link]];
  }
  std::uint64_t Transmitted(std::size_t link) const {
    return transmitted_[link];
  }
  void Push(std::size_t link, std::uint32_t item) {
    std::size_t slot = head_[link] + size_[link];
    if (slot >= capacity_) slot -= capacity_;
    slots_[link * capacity_ + slot] = item;
    ++size_[link];
  }
  std::uint32_t PopFront(std::size_t link) {
    const std::uint32_t item = slots_[link * capacity_ + head_[link]];
    if (++head_[link] == capacity_) head_[link] = 0;
    --size_[link];
    ++transmitted_[link];
    return item;
  }

 private:
  std::size_t capacity_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint64_t> transmitted_;
};

// Flight-recorder lane namer: directed link -> "u->v".
inline std::function<std::string(std::uint64_t)> LaneNamer(
    const graph::CsrView& csr) {
  return [&csr](std::uint64_t link) {
    const auto [u, v] = csr.Endpoints(static_cast<graph::EdgeId>(link / 2));
    return link % 2 == 0 ? std::to_string(u) + "->" + std::to_string(v)
                         : std::to_string(v) + "->" + std::to_string(u);
  };
}

// Post-run link utilization: a link's transmissions times the service time
// over the run's duration. Links fold in id order, so every engine gets the
// same doubles bit for bit.
struct LinkUtilization {
  double max = 0.0;   // busiest directed link
  double mean = 0.0;  // over links that transmitted at all
  std::uint64_t transmitted = 0;  // every link's transmissions
};

inline LinkUtilization FoldLinkUtilization(const RingLinkStore& links,
                                           double service_time,
                                           double duration) {
  LinkUtilization fold;
  double total = 0.0;
  std::size_t busy_links = 0;
  for (std::size_t link = 0; link < links.LinkCount(); ++link) {
    const std::uint64_t transmitted = links.Transmitted(link);
    fold.transmitted += transmitted;
    if (transmitted == 0) continue;
    const double utilization =
        static_cast<double>(transmitted) * service_time / duration;
    fold.max = std::max(fold.max, utilization);
    total += utilization;
    ++busy_links;
  }
  fold.mean = busy_links == 0 ? 0.0 : total / static_cast<double>(busy_links);
  return fold;
}

// Post-run hot links, hot transmitting switches and the link -> node -> tier
// -> fabric rollup: a pure function of the transmit counts, called from one
// thread per run (the heavy-hitter determinism contract in obs/sketch.h).
inline void FoldLinkTransmits(const graph::CsrView& csr,
                              const RingLinkStore& links,
                              obs::HeavyHitters& hot_links,
                              obs::HeavyHitters& hot_switches,
                              obs::Rollup& rollup) {
  for (std::size_t link = 0; link < links.LinkCount(); ++link) {
    const std::uint64_t tx = links.Transmitted(link);
    if (tx == 0) continue;
    const auto [u, v] = csr.Endpoints(static_cast<graph::EdgeId>(link / 2));
    const graph::NodeId tail = link % 2 == 0 ? u : v;  // the transmitter
    const std::int64_t tier = csr.IsSwitch(tail) ? 1 : 0;
    hot_links.Add(static_cast<std::int64_t>(link), tx);
    if (tier == 1) hot_switches.Add(static_cast<std::int64_t>(tail), tx);
    const std::array<std::int64_t, 4> groups{static_cast<std::int64_t>(link),
                                             static_cast<std::int64_t>(tail),
                                             tier, 0};
    rollup.Add(groups, static_cast<std::int64_t>(tx));
  }
}

}  // namespace dcn::sim
