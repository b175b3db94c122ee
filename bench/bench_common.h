// What every bench shares: range checks on flag values, which turn a value
// no run can use into a one-line usage error (exit 2) instead of an abort
// or a meaningless table, and the median-of-reps timer.
#pragma once

#include <functional>
#include <sstream>

#include "common/cli.h"

namespace qfab::bench {

/// Throw a one-line UsageError for `--flag value` unless `ok`.
template <typename T>
void require(bool ok, const char* flag, const char* range, T value) {
  if (ok) return;
  std::ostringstream msg;
  msg << "--" << flag << " must be " << range << ", got " << value;
  throw UsageError(msg.str());
}

/// A count flag's value (instances, trajectories, reps, --n) as an int:
/// a UsageError unless it is in [1, 2147483647].
int require_count(const char* flag, long value);

/// A gate error rate in percent: a UsageError unless it is in (0, 100].
void require_rate(const char* flag, double percent);

/// The median of `reps` calls of `sample` (the upper one for even reps).
/// reps below 1 is a UsageError.
double median_of(int reps, const std::function<double()>& sample);

/// Median wall time in milliseconds of `reps` calls of `body`.
double median_ms(int reps, const std::function<void()>& body);

}  // namespace qfab::bench
