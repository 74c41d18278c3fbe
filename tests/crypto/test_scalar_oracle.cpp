// Oracle tests for the fast paths in secp256k1.cpp: the fold reduction mod n
// behind sc_reduce / sc_add / sc_mul is checked against the generic
// bit-serial U512::mod, and the fixed-base table behind scalar_mul_base
// against double-and-add scalar_mul. Every comparison is exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "crypto/secp256k1.hpp"

namespace bng::crypto {
namespace {

U256 oracle_mod_n(const U512& v) { return v.mod(order_n()); }

U256 oracle_mod_n(const U256& v) { return oracle_mod_n(U512::from_u256(v)); }

U512 wide_sum(const U256& a, const U256& b) {
  bool carry;
  U512 w = U512::from_u256(U256::add(a, b, carry));
  w.limb[4] = carry;
  return w;
}

U256 n_plus(std::int64_t delta) {
  bool flag;
  return delta >= 0 ? U256::add(order_n(), U256(static_cast<std::uint64_t>(delta)), flag)
                    : U256::sub(order_n(), U256(static_cast<std::uint64_t>(-delta)), flag);
}

/// 0, 1, n-1, n, n+1, 2^256-1, plus the fold's own boundaries: 2^256 - n
/// (== 2^256 mod n), 2^255, 2^128 and a value with every other limb full.
std::vector<U256> edge_values() {
  const U256 ones(~0ull, ~0ull, ~0ull, ~0ull);
  bool borrow;
  const U256 c = U256::sub(ones, order_n(), borrow);  // 2^256 - 1 - n
  return {U256(0),         U256(1),          n_plus(-1),
          order_n(),       n_plus(1),        ones,
          U256::add(c, U256(1), borrow),     U256(0, 0, 0, 1ull << 63),
          U256(0, 0, 1, 0), U256(~0ull, 0, ~0ull, 0)};
}

/// Uniform 256-bit values mixed with structured ones (limbs forced to 0 or
/// all-ones, values just above n or just below 2^256), so that products and
/// sums land on every number of folds and on both sides of n.
U256 random_input(Rng& rng) {
  U256 v(rng.next(), rng.next(), rng.next(), rng.next());
  switch (rng.next() % 4) {
    case 0:
      return v;
    case 1:
      for (auto& limb : v.limb) {
        const auto pick = rng.next() % 3;
        if (pick == 0) limb = 0;
        if (pick == 1) limb = ~0ull;
      }
      return v;
    case 2:
      return n_plus(static_cast<std::int64_t>(rng.next() % 1024) - 512);
    default: {
      bool borrow;
      return U256::sub(U256(~0ull, ~0ull, ~0ull, ~0ull), U256(rng.next() % 4096), borrow);
    }
  }
}

constexpr int kRandomCases = 100000;

TEST(ScalarOracle, ReduceMatchesGenericMod) {
  for (const U256& a : edge_values()) EXPECT_EQ(sc_reduce(a), oracle_mod_n(a)) << a.to_hex();
  Rng rng(0x5ca1a12);
  for (int i = 0; i < kRandomCases; ++i) {
    const U256 a = random_input(rng);
    ASSERT_EQ(sc_reduce(a), oracle_mod_n(a)) << a.to_hex();
  }
}

TEST(ScalarOracle, AddMatchesGenericMod) {
  const auto edges = edge_values();
  for (const U256& a : edges)
    for (const U256& b : edges)
      EXPECT_EQ(sc_add(a, b), oracle_mod_n(wide_sum(a, b))) << a.to_hex() << " + " << b.to_hex();
  Rng rng(0xadd);
  int carried = 0;
  for (int i = 0; i < kRandomCases; ++i) {
    const U256 a = random_input(rng), b = random_input(rng);
    const U512 sum = wide_sum(a, b);
    carried += sum.limb[4] != 0;
    ASSERT_EQ(sc_add(a, b), oracle_mod_n(sum)) << a.to_hex() << " + " << b.to_hex();
  }
  EXPECT_GT(carried, kRandomCases / 10);  // the carry-out path is exercised
}

TEST(ScalarOracle, MulMatchesGenericMod) {
  const auto edges = edge_values();
  for (const U256& a : edges)
    for (const U256& b : edges)
      EXPECT_EQ(sc_mul(a, b), oracle_mod_n(U256::mul_wide(a, b)))
          << a.to_hex() << " * " << b.to_hex();
  // (n-1)^2 == 1 (mod n).
  EXPECT_EQ(sc_mul(n_plus(-1), n_plus(-1)), U256(1));
  Rng rng(0x3a1);
  for (int i = 0; i < kRandomCases; ++i) {
    const U256 a = random_input(rng), b = random_input(rng);
    ASSERT_EQ(sc_mul(a, b), oracle_mod_n(U256::mul_wide(a, b)))
        << a.to_hex() << " * " << b.to_hex();
  }
}

TEST(ScalarOracle, NegOfMultipleOfNIsZero) {
  EXPECT_EQ(sc_neg(U256(0)), U256(0));
  EXPECT_EQ(sc_neg(order_n()), U256(0));  // n is 0 mod n, not n
  EXPECT_EQ(sc_neg(n_plus(1)), n_plus(-1));
  EXPECT_EQ(sc_neg(U256(1)), n_plus(-1));
  Rng rng(0x9e9);
  std::vector<U256> inputs = edge_values();
  for (int i = 0; i < 1000; ++i) inputs.push_back(random_input(rng));
  for (const U256& a : inputs) {
    const U256 neg = sc_neg(a);
    EXPECT_LT(neg, order_n()) << a.to_hex();
    EXPECT_EQ(sc_add(a, neg), U256(0)) << a.to_hex();
  }
}

void expect_base_matches(const U256& k) {
  EXPECT_EQ(scalar_mul_base(k).to_affine(), scalar_mul(k, generator()).to_affine())
      << "k = " << k.to_hex();
}

TEST(ScalarOracle, BaseMulMatchesDoubleAndAdd) {
  for (const U256& k : {U256(0), U256(1), U256(15), U256(16), U256(0, 0, 0, 1ull << 60),
                        n_plus(-1), order_n(), n_plus(1), U256(~0ull, ~0ull, ~0ull, ~0ull)})
    expect_base_matches(k);
  EXPECT_TRUE(scalar_mul_base(order_n()).is_infinity());
  // Every window, with a nibble that walks through 1..15, and nibble 15.
  for (unsigned w = 0; w < 64; ++w) {
    expect_base_matches(U256(1).shl(4 * w));
    expect_base_matches(U256(1 + w % 15).shl(4 * w));
    expect_base_matches(U256(15).shl(4 * w));
  }
  Rng rng(0xba5e);
  for (int i = 0; i < 200; ++i) expect_base_matches(random_input(rng));
}

}  // namespace
}  // namespace bng::crypto
