#include <gtest/gtest.h>

#include <cmath>

#include "arith/expected.h"
#include "arith/qint.h"
#include "common/rng.h"
#include "sim/statevector.h"

namespace qfab {
namespace {

TEST(QIntEncoding, TwosComplementRoundTrip) {
  for (int bits : {1, 4, 8}) {
    const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
    const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
    for (std::int64_t v = lo; v <= hi; ++v)
      EXPECT_EQ(QInt::decode_signed(QInt::encode(v, bits), bits), v);
  }
}

TEST(QIntEncoding, KnownValues) {
  EXPECT_EQ(QInt::encode(-1, 4), 15u);
  EXPECT_EQ(QInt::encode(-8, 4), 8u);
  EXPECT_EQ(QInt::encode(7, 4), 7u);
  EXPECT_EQ(QInt::encode(16, 4), 0u);   // wraps
  EXPECT_EQ(QInt::encode(-9, 4), 7u);   // wraps
  EXPECT_EQ(QInt::decode_signed(15, 4), -1);
  EXPECT_EQ(QInt::decode_signed(8, 4), -8);
}

TEST(QInt, ClassicalOrderOne) {
  const QInt q = QInt::classical(4, 11);
  EXPECT_EQ(q.order(), 1);
  EXPECT_EQ(q.support(), std::vector<u64>{11});
  EXPECT_NEAR(std::abs(q.terms()[0].amplitude), 1.0, 1e-12);
}

TEST(QInt, UniformAmplitudes) {
  const QInt q = QInt::uniform(4, {3, 7, 12});
  EXPECT_EQ(q.order(), 3);
  for (const auto& t : q.terms())
    EXPECT_NEAR(std::norm(t.amplitude), 1.0 / 3.0, 1e-12);
}

TEST(QInt, SuperpositionNormalizes) {
  const QInt q = QInt::superposition(
      3, {{1, cplx{3.0, 0.0}}, {2, cplx{0.0, 4.0}}});
  EXPECT_NEAR(std::norm(q.terms()[0].amplitude), 9.0 / 25.0, 1e-12);
  EXPECT_NEAR(std::norm(q.terms()[1].amplitude), 16.0 / 25.0, 1e-12);
}

TEST(QInt, RejectsDuplicatesAndRange) {
  EXPECT_THROW(QInt::uniform(3, {1, 1}), CheckError);
  EXPECT_NO_THROW(QInt::uniform(3, {7}));
  EXPECT_EQ(QInt::uniform(3, {9}).support()[0], 1u);  // 9 mod 8
}

TEST(ProductState, TwoRegistersWithPadding) {
  // x=|2> on bits [0,2), y=(|1>+|3>)/√2 on bits [2,4), one padding qubit.
  const StateVector sv = prepare_product_state(
      5, {{QubitRange{0, 2}, QInt::classical(2, 2)},
          {QubitRange{2, 2}, QInt::uniform(2, {1, 3})}});
  EXPECT_NEAR(std::norm(sv.amplitude(0b00110)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(sv.amplitude(0b01110)), 0.5, 1e-12);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(ProductState, EntangledAmplitudeProducts) {
  const QInt a = QInt::superposition(1, {{0, cplx{0.6, 0.0}},
                                         {1, cplx{0.8, 0.0}}});
  const QInt b = QInt::superposition(1, {{0, cplx{0.0, 0.6}},
                                         {1, cplx{0.8, 0.0}}});
  const StateVector sv = prepare_product_state(
      2, {{QubitRange{0, 1}, a}, {QubitRange{1, 1}, b}});
  EXPECT_NEAR(std::norm(sv.amplitude(0b00)), 0.36 * 0.36, 1e-12);
  EXPECT_NEAR(std::norm(sv.amplitude(0b11)), 0.64 * 0.64, 1e-12);
}

TEST(ProductState, RejectsOverlapAndMismatch) {
  EXPECT_THROW(prepare_product_state(
                   3, {{QubitRange{0, 2}, QInt::classical(2, 1)},
                       {QubitRange{1, 2}, QInt::classical(2, 1)}}),
               CheckError);
  EXPECT_THROW(prepare_product_state(
                   3, {{QubitRange{0, 2}, QInt::classical(3, 1)}}),
               CheckError);
}

// ---------- expected outputs ----------

TEST(Expected, SumsModulo) {
  const QInt x = QInt::uniform(3, {6, 7});
  const QInt y = QInt::classical(3, 3);
  const auto sums = expected_sums(x, y, 3);
  // 6+3=9≡1, 7+3=10≡2.
  EXPECT_EQ(sums, (std::vector<u64>{1, 2}));
}

TEST(Expected, SumsCollide) {
  const QInt x = QInt::uniform(3, {1, 2});
  const QInt y = QInt::uniform(3, {4, 5});
  const auto sums = expected_sums(x, y, 3);
  // {5,6,6,7} -> {5,6,7}.
  EXPECT_EQ(sums, (std::vector<u64>{5, 6, 7}));
}

TEST(Expected, ProductsWide) {
  const QInt x = QInt::uniform(4, {3, 5});
  const QInt y = QInt::uniform(4, {7, 11});
  const auto prods = expected_products(x, y, 8);
  EXPECT_EQ(prods, (std::vector<u64>{21, 33, 35, 55}));
}

}  // namespace
}  // namespace qfab
