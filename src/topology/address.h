// Digit vectors shared by the cube-based topologies.
//
// A digit vector stores a_0 .. a_k little-endian: digits[l] is the level-l
// digit, so level-l routing touches index l directly. String rendering is
// big-endian ("a_k...a_0"), matching how the papers print addresses. The
// digit <-> index arithmetic lives in one place, topo::ImplicitCube.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dcn::topo {

using Digits = std::vector<int>;

// "a_k...a_0" with separating dots when base > 10, e.g. "3.0.1".
std::string DigitsToString(std::span<const int> digits, int base);

// Number of positions where the two equal-length vectors differ.
int HammingDistance(std::span<const int> a, std::span<const int> b);

// base^exponent with overflow check (throws InvalidArgument on overflow);
// topology sizes must stay representable.
std::uint64_t CheckedPow(std::uint64_t base, unsigned exponent);

// a*b / a+b with the same overflow contract as CheckedPow, so derived counts
// (switch totals, link totals) can be validated without constructing anything.
std::uint64_t CheckedMul(std::uint64_t a, std::uint64_t b);
std::uint64_t CheckedAdd(std::uint64_t a, std::uint64_t b);

}  // namespace dcn::topo
