#include "bench_common.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/stopwatch.h"

namespace qfab::bench {

int require_count(const char* flag, long value) {
  constexpr long kIntMax = std::numeric_limits<int>::max();
  require(value >= 1 && value <= kIntMax, flag, "in [1, 2147483647]", value);
  return static_cast<int>(value);
}

void require_rate(const char* flag, double percent) {
  require(percent > 0.0 && percent <= 100.0, flag, "in (0, 100] percent",
          percent);
}

double median_of(int reps, const std::function<double()>& sample) {
  require(reps >= 1, "reps", "at least 1", reps);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) samples.push_back(sample());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double median_ms(int reps, const std::function<void()>& body) {
  return median_of(reps, [&body] {
    Stopwatch watch;
    body();
    return watch.seconds() * 1e3;
  });
}

}  // namespace qfab::bench
