#include "host.h"

#include <dirent.h>
#include <sched.h>
#include <time.h>

#include <fstream>
#include <sstream>

namespace panelbench {

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  return 0.0;
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

int live_threads() {
  int n = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir))
      if (e->d_name[0] != '.') ++n;
    closedir(dir);
  }
  return n;
}

std::string cpu_simd_tier() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    const std::string flags = line + " ";
    if (flags.find(" avx512f ") != std::string::npos) return "avx512";
    if (flags.find(" avx2 ") != std::string::npos &&
        flags.find(" fma ") != std::string::npos)
      return "avx2";
    return "scalar";
  }
  return "scalar";
}

std::vector<double> load_average() {
  std::ifstream in("/proc/loadavg");
  std::vector<double> load(3, 0.0);
  in >> load[0] >> load[1] >> load[2];
  return load;
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first
  CpuTimes t;
  long long v = 0;
  // user nice system idle iowait irq softirq steal; the guest fields that
  // follow are already counted in user and nice.
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

}  // namespace panelbench
