#include "routing/permutation.h"

#include "common/error.h"

namespace dcn::routing {

namespace {

// SplitMix64 finalizer: cheap, well-mixed stateless hash.
std::uint64_t MixPair(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const char* ToString(PermutationStrategy strategy) {
  switch (strategy) {
    case PermutationStrategy::kSequential:
      return "sequential";
    case PermutationStrategy::kGroupedFromSource:
      return "grouped";
    case PermutationStrategy::kRandom:
      return "random";
    case PermutationStrategy::kBalancedHash:
      return "balanced-hash";
  }
  return "unknown";
}

std::vector<int> MakeLevelOrder(const topo::Abccc& net,
                                const topo::AbcccAddress& src,
                                const topo::AbcccAddress& dst,
                                PermutationStrategy strategy, Rng* rng) {
  DCN_REQUIRE(src.digits.size() == dst.digits.size(),
              "addresses must have equal digit counts");
  switch (strategy) {
    case PermutationStrategy::kSequential: {
      std::vector<int> order;
      for (int level = 0; level <= net.Params().Order(); ++level) {
        if (src.digits[level] != dst.digits[level]) order.push_back(level);
      }
      return order;
    }
    case PermutationStrategy::kGroupedFromSource:
      return net.DefaultLevelOrder(src, dst);
    case PermutationStrategy::kRandom: {
      DCN_REQUIRE(rng != nullptr, "kRandom needs an Rng");
      std::vector<int> order;
      for (int level = 0; level <= net.Params().Order(); ++level) {
        if (src.digits[level] != dst.digits[level]) order.push_back(level);
      }
      rng->Shuffle(order);
      return order;
    }
    case PermutationStrategy::kBalancedHash: {
      std::vector<int> differing;
      for (int level = 0; level <= net.Params().Order(); ++level) {
        if (src.digits[level] != dst.digits[level]) differing.push_back(level);
      }
      if (differing.size() <= 1) return differing;
      const std::uint64_t key =
          MixPair(net.RowIndex(src.digits) * 2 + static_cast<std::uint64_t>(src.role),
                  net.RowIndex(dst.digits) * 2 + static_cast<std::uint64_t>(dst.role));
      const std::size_t rotation = key % differing.size();
      std::vector<int> order;
      order.reserve(differing.size());
      for (std::size_t i = 0; i < differing.size(); ++i) {
        order.push_back(differing[(rotation + i) % differing.size()]);
      }
      return order;
    }
  }
  throw InvalidArgument{"unknown permutation strategy"};
}

}  // namespace dcn::routing
