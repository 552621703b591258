#include "topology/address.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.h"

namespace dcn::topo {
namespace {

TEST(AddressTest, ToStringBigEndian) {
  EXPECT_EQ(DigitsToString(Digits{1, 2, 3}, 4), "321");
  EXPECT_EQ(DigitsToString(Digits{11, 0, 3}, 16), "3.0.11");
  EXPECT_EQ(DigitsToString(Digits{}, 4), "");
}

TEST(AddressTest, HammingDistance) {
  EXPECT_EQ(HammingDistance(Digits{1, 2, 3}, Digits{1, 2, 3}), 0);
  EXPECT_EQ(HammingDistance(Digits{1, 2, 3}, Digits{0, 2, 1}), 2);
  EXPECT_THROW(HammingDistance(Digits{1}, Digits{1, 2}), InvalidArgument);
}

TEST(AddressTest, CheckedMulAndAdd) {
  EXPECT_EQ(CheckedMul(3, 7), 21u);
  EXPECT_EQ(CheckedMul(std::uint64_t{1} << 32, 2), std::uint64_t{1} << 33);
  EXPECT_EQ(CheckedMul(~std::uint64_t{0}, 0), 0u);
  EXPECT_EQ(CheckedMul(~std::uint64_t{0}, 1), ~std::uint64_t{0});
  EXPECT_THROW(CheckedMul(std::uint64_t{1} << 32, std::uint64_t{1} << 32),
               InvalidArgument);

  EXPECT_EQ(CheckedAdd(2, 3), 5u);
  EXPECT_EQ(CheckedAdd(~std::uint64_t{0}, 0), ~std::uint64_t{0});
  EXPECT_THROW(CheckedAdd(~std::uint64_t{0}, 1), InvalidArgument);
}

TEST(AddressTest, CheckedPow) {
  EXPECT_EQ(CheckedPow(2, 0), 1u);
  EXPECT_EQ(CheckedPow(2, 10), 1024u);
  EXPECT_EQ(CheckedPow(10, 6), 1000000u);
  EXPECT_THROW(CheckedPow(2, 64), InvalidArgument);
}

}  // namespace
}  // namespace dcn::topo
