// Process and host probes for the per-run record: CPU time, peak memory,
// the allowed CPU set, live threads, load average and steal time.
#pragma once

#include <string>
#include <vector>

namespace panelbench {

/// CPU seconds consumed by every thread of this process so far.
double process_cpu_seconds();

/// CPU seconds consumed by the calling thread so far.
double thread_cpu_seconds();

/// Peak resident set size of this process so far (VmHWM), in MiB.
double peak_rss_mib();

/// CPUs this process may run on (its affinity mask), ascending.
std::vector<int> allowed_cpus();

/// Threads of this process right now (/proc/self/task entries).
int live_threads();

/// "avx512", "avx2" or "scalar": the widest batched-kernel tier the CPU
/// supports, read from the /proc/cpuinfo flags (the tier the kernels'
/// CPUID dispatch selects when nothing overrides it).
std::string cpu_simd_tier();

/// The 1-, 5- and 15-minute load averages.
std::vector<double> load_average();

/// Aggregate CPU jiffies from /proc/stat: steal and the sum of all fields.
struct CpuTimes {
  long long steal = 0;
  long long total = 0;
};
CpuTimes cpu_times();

}  // namespace panelbench
