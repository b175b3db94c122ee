#include "arith/expected.h"

#include <algorithm>

namespace qfab {

namespace {

std::vector<u64> sorted_unique(std::vector<u64> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

template <typename Op>
std::vector<u64> combine(const QInt& x, const QInt& y, int out_bits, Op op) {
  QFAB_CHECK(out_bits >= 1 && out_bits < 63);
  const u64 mask = pow2(out_bits) - 1;
  std::vector<u64> out;
  out.reserve(x.terms().size() * y.terms().size());
  for (const auto& tx : x.terms())
    for (const auto& ty : y.terms()) out.push_back(op(tx.value, ty.value) & mask);
  return sorted_unique(std::move(out));
}

}  // namespace

std::vector<u64> expected_sums(const QInt& x, const QInt& y, int out_bits) {
  return combine(x, y, out_bits, [](u64 a, u64 b) { return a + b; });
}

std::vector<u64> expected_products(const QInt& x, const QInt& y,
                                   int out_bits) {
  return combine(x, y, out_bits, [](u64 a, u64 b) { return a * b; });
}

}  // namespace qfab
