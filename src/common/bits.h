// Bit-twiddling helpers shared by the state-vector kernels and the
// arithmetic layer. Qubit index 0 is the least-significant bit of a basis
// state's integer label (little-endian, Qiskit convention).
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.h"

namespace qfab {

using u64 = std::uint64_t;

/// 2^n as an unsigned 64-bit value. Requires n < 64.
constexpr u64 pow2(int n) {
  QFAB_CHECK(n >= 0 && n < 64);
  return u64{1} << n;
}

/// Value of bit `b` of `x` (0 or 1).
constexpr int get_bit(u64 x, int b) { return static_cast<int>((x >> b) & 1u); }

/// `x` with bit `b` set to 1.
constexpr u64 set_bit(u64 x, int b) { return x | (u64{1} << b); }

/// `x` with bit `b` cleared.
constexpr u64 clear_bit(u64 x, int b) { return x & ~(u64{1} << b); }

/// `x` with bit `b` flipped.
constexpr u64 flip_bit(u64 x, int b) { return x ^ (u64{1} << b); }

/// Insert a 0 bit at position `b`, shifting higher bits left.
/// Used to enumerate basis states with a given qubit fixed to 0.
constexpr u64 insert_zero_bit(u64 x, int b) {
  const u64 low_mask = (u64{1} << b) - 1;
  return ((x & ~low_mask) << 1) | (x & low_mask);
}

/// Insert two 0 bits at positions b1 < b2 (positions in the *output*).
constexpr u64 insert_two_zero_bits(u64 x, int b1, int b2) {
  QFAB_CHECK(b1 < b2);
  return insert_zero_bit(insert_zero_bit(x, b1), b2);
}

/// Number of set bits.
constexpr int popcount(u64 x) { return std::popcount(x); }

/// ceil(log2(x)) for x >= 1; number of bits needed to index x states.
constexpr int ceil_log2(u64 x) {
  QFAB_CHECK(x >= 1);
  return (x == 1) ? 0 : 64 - std::countl_zero(x - 1);
}

/// Reverse the lowest `n` bits of `x` (used by QFT output-ordering checks).
constexpr u64 reverse_bits(u64 x, int n) {
  u64 r = 0;
  for (int i = 0; i < n; ++i) r |= static_cast<u64>(get_bit(x, i)) << (n - 1 - i);
  return r;
}

}  // namespace qfab
