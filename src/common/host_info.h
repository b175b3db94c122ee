// Host metadata for the bench JSON writers: checked-in BENCH_*.json results
// are only comparable against runs on similar hardware, so every writer
// embeds the CPU model, cache sizes, and the batched double kernel build
// alongside its measurements.
#pragma once

#include <string>

namespace qfab {

struct HostInfo {
  std::string cpu_model;  // /proc/cpuinfo "model name" ("" when unknown)
  long l2_kib = 0;        // per-core unified L2 (0 when unknown)
  long l3_kib = 0;        // shared L3 (0 when unknown)
};

/// Probe /proc/cpuinfo and the cpu0 sysfs cache hierarchy once per process.
const HostInfo& host_info();

/// One-line JSON object for a bench writer's "host" key:
///   {"cpu": "...", "simd": "<simd_level>", "l2_kib": N, "l3_kib": N}
/// `simd_level` is passed in (kernel_tier_name<double>(), sim/batch.h:
/// "avx2" or "scalar") so this header stays below the sim layer.
std::string host_info_json(const std::string& simd_level);

}  // namespace qfab
