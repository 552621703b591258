#include "topology/address.h"

#include <limits>
#include <sstream>

#include "common/error.h"

namespace dcn::topo {

std::string DigitsToString(std::span<const int> digits, int base) {
  std::ostringstream out;
  const bool dotted = base > 10;
  for (std::size_t i = digits.size(); i > 0; --i) {
    out << digits[i - 1];
    if (dotted && i > 1) out << ".";
  }
  return out.str();
}

int HammingDistance(std::span<const int> a, std::span<const int> b) {
  DCN_REQUIRE(a.size() == b.size(), "Hamming distance needs equal lengths");
  int distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i) distance += a[i] != b[i] ? 1 : 0;
  return distance;
}

std::uint64_t CheckedPow(std::uint64_t base, unsigned exponent) {
  std::uint64_t result = 1;
  for (unsigned i = 0; i < exponent; ++i) {
    DCN_REQUIRE(result <= std::numeric_limits<std::uint64_t>::max() / base,
                "topology size overflows 64 bits");
    result *= base;
  }
  return result;
}

std::uint64_t CheckedMul(std::uint64_t a, std::uint64_t b) {
  DCN_REQUIRE(b == 0 || a <= std::numeric_limits<std::uint64_t>::max() / b,
              "topology size overflows 64 bits");
  return a * b;
}

std::uint64_t CheckedAdd(std::uint64_t a, std::uint64_t b) {
  DCN_REQUIRE(a <= std::numeric_limits<std::uint64_t>::max() - b,
              "topology size overflows 64 bits");
  return a + b;
}

}  // namespace dcn::topo
