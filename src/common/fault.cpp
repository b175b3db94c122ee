#include "common/fault.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace qfab::fault {

namespace {

struct FaultState {
  long crash_after_unit = -1;
  long torn_write_unit = -1;
  long corrupt_crc_unit = -1;
  long drain_after_unit = -1;
  long nan_gate = -1;
  std::atomic<long> nan_charges{0};  // -1 = unlimited

  void parse(const std::string& spec) {
    crash_after_unit = torn_write_unit = corrupt_crc_unit =
        drain_after_unit = nan_gate = -1;
    nan_charges.store(0, std::memory_order_relaxed);
    long nan_count = 1;
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string item = spec.substr(pos, comma - pos);
      pos = comma + 1;
      const auto eq = item.find('=');
      if (eq == std::string::npos) continue;  // unknown/bare tokens ignored
      const std::string key = item.substr(0, eq);
      const long value = std::strtol(item.c_str() + eq + 1, nullptr, 10);
      if (key == "crash-after-unit") crash_after_unit = value;
      else if (key == "torn-write") torn_write_unit = value;
      else if (key == "corrupt-crc") corrupt_crc_unit = value;
      else if (key == "drain-after-unit") drain_after_unit = value;
      else if (key == "nan-at-gate") nan_gate = value;
      else if (key == "nan-count") nan_count = value;
    }
    if (nan_gate >= 0)
      nan_charges.store(nan_count, std::memory_order_relaxed);
  }
};

FaultState& state() {
  static FaultState s;
  static const bool parsed = [] {
    const char* env = std::getenv("QFAB_FAULT");
    s.parse(env ? env : "");
    return true;
  }();
  (void)parsed;
  return s;
}

}  // namespace

void set_fault_spec_for_tests(const std::string& spec) {
  state().parse(spec);
}

long crash_after_unit() { return state().crash_after_unit; }
long torn_write_unit() { return state().torn_write_unit; }
long corrupt_crc_unit() { return state().corrupt_crc_unit; }
long drain_after_unit() { return state().drain_after_unit; }

bool nan_fault_active() {
  const FaultState& s = state();
  return s.nan_gate >= 0 &&
         s.nan_charges.load(std::memory_order_relaxed) != 0;
}

bool take_nan_charge(std::size_t gate_begin, std::size_t gate_end) {
  FaultState& s = state();
  if (s.nan_gate < 0) return false;
  const auto g = static_cast<std::size_t>(s.nan_gate);
  if (g < gate_begin || g >= gate_end) return false;
  long have = s.nan_charges.load(std::memory_order_relaxed);
  while (have != 0) {
    if (have < 0) return true;  // unlimited
    if (s.nan_charges.compare_exchange_weak(have, have - 1,
                                            std::memory_order_relaxed))
      return true;
  }
  return false;
}

void crash_now(const char* directive) {
  std::fprintf(stderr, "\nQFAB_FAULT: injected crash (%s)\n", directive);
  std::fflush(stderr);
  ::_exit(kCrashExitCode);
}

}  // namespace qfab::fault
