// Classical computation of the correct outputs of a quantum arithmetic
// instance — the ground truth the success metric compares measured counts
// against (paper Sec. IV: "the binary outputs with the highest frequency
// matched those anticipated based on the input values").
#pragma once

#include <vector>

#include "arith/qint.h"

namespace qfab {

/// All distinct values (x + y) mod 2^out_bits over the operand supports,
/// ascending. For QFA the output register is y, so out_bits = |y|.
std::vector<u64> expected_sums(const QInt& x, const QInt& y, int out_bits);

/// All distinct values (x * y) mod 2^out_bits over the operand supports.
std::vector<u64> expected_products(const QInt& x, const QInt& y,
                                   int out_bits);

}  // namespace qfab
