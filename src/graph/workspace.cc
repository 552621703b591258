#include "graph/workspace.h"

#include <algorithm>
#include <memory>

#include "common/parallel.h"

namespace dcn::graph {
namespace {

// Words per chunk when MsBfsWorkspace::Begin zeroes its arrays; a smaller
// extent is zeroed inline.
constexpr std::size_t kZeroChunk = std::size_t{1} << 16;

// Per-thread freelists. Borrowing is strictly LIFO (scopes nest), so a depth
// index over a grow-only vector suffices; entries outlive the scope and keep
// their buffers warm for the next borrow. Thread-local storage means no
// sharing and no synchronization — each pool worker (common/parallel.h keeps
// them alive across regions) owns its workspaces for the process lifetime.
template <typename T>
struct Freelist {
  std::vector<std::unique_ptr<T>> items;
  std::size_t depth = 0;

  T* Borrow() {
    if (depth == items.size()) items.push_back(std::make_unique<T>());
    return items[depth++].get();
  }
  void Release() { --depth; }
};

thread_local Freelist<TraversalWorkspace> tl_traversal;
thread_local Freelist<FlowWorkspace> tl_flow;
thread_local Freelist<MsBfsWorkspace> tl_msbfs;

}  // namespace

void MsBfsWorkspace::Begin(std::size_t nodes) {
  if (capacity_ < nodes) {
    // Left uninitialized: the zeroing below is the first touch.
    seen_ = std::make_unique_for_overwrite<std::uint64_t[]>(nodes);
    front_ = std::make_unique_for_overwrite<std::uint64_t[]>(nodes);
    next_ = std::make_unique_for_overwrite<std::uint64_t[]>(nodes);
    capacity_ = nodes;
    dirty_ = true;
  }
  const std::size_t words = (capacity_ + 63) / 64;
  if (touched_.size() < words) touched_.resize(words, 0);
  // A dirty workspace zeroes the frontier words over their whole capacity, so
  // words past `nodes` stay zero for a later, larger run.
  const std::size_t extent = dirty_ ? capacity_ : nodes;
  const auto zero = [&](std::size_t begin, std::size_t end) {
    if (begin < nodes) {
      std::fill(seen_.get() + begin, seen_.get() + std::min(end, nodes), 0);
    }
    if (dirty_) {
      std::fill(front_.get() + begin, front_.get() + end, 0);
      std::fill(next_.get() + begin, next_.get() + end, 0);
    }
  };
  if (extent <= kZeroChunk) {
    zero(0, extent);
  } else {
    ParallelFor(extent, kZeroChunk, zero);
  }
  if (dirty_) std::fill(touched_.begin(), touched_.end(), 0);
  dirty_ = true;
  active_.clear();
  spare_.clear();
  unfinished_.clear();
}

TraversalScope::TraversalScope() : ws_(tl_traversal.Borrow()) {}
TraversalScope::~TraversalScope() { tl_traversal.Release(); }

FlowScope::FlowScope() : ws_(tl_flow.Borrow()) {}
FlowScope::~FlowScope() { tl_flow.Release(); }

MsBfsScope::MsBfsScope() : ws_(tl_msbfs.Borrow()) {}
MsBfsScope::~MsBfsScope() { tl_msbfs.Release(); }

}  // namespace dcn::graph
