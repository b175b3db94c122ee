// Pins every sweep-unit path bitwise: one small QFA panel and one small QFM
// panel, each run in every mode that takes its own route from a work unit
// to the estimators (batched and scalar units, shared and per-rate
// columns, per-shot sampling, float32 replay). A SweepResult is reduced to
// one digest of every point's successes, sigma bits and error-bar flips
// plus every SharedEstimateStats field, and compared with the digest the
// code gave when these values were recorded. A mismatch means some stream
// was consumed differently, or a replay or reduction changed its rounding.
//
// The 4.0% column trips the ESS guard, so both ESS-fallback routes (the
// scalar per-rate estimator and the batched one-member lane estimator) are
// covered; the 4-lane batched modes leave a ragged last block of 2.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace qfab {
namespace {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t sweep_digest(const SweepResult& r) {
  Digest d;
  for (const SweepPoint& p : r.points) {
    d.add(static_cast<std::uint64_t>(p.stats.successes));
    d.add(p.stats.sigma);
    d.add(static_cast<std::uint64_t>(p.stats.lower_flips));
    d.add(static_cast<std::uint64_t>(p.stats.upper_flips));
  }
  const SharedEstimateStats& s = r.shared_stats;
  d.add(static_cast<std::uint64_t>(s.proposal_trajectories));
  d.add(static_cast<std::uint64_t>(s.unique_trajectories));
  d.add(static_cast<std::uint64_t>(s.fallback_trajectories));
  d.add(static_cast<std::uint64_t>(s.rate_columns));
  d.add(static_cast<std::uint64_t>(s.fallback_columns));
  d.add(s.ess_fraction_min);
  d.add(s.ess_fraction_sum);
  d.add(static_cast<std::uint64_t>(s.ess_fraction_count));
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

SweepConfig digest_panel(Operation op) {
  SweepConfig config;
  config.base.op = op;
  config.base.n = op == Operation::kAdd ? 4 : 2;
  config.depths = {1, kFullDepth};
  config.rates_percent = {0.1, 0.5, 4.0};
  config.vary_2q = true;
  config.orders = {1, 2};
  config.instances = 6;
  config.run.shots = 256;
  config.run.error_trajectories = 8;
  config.seed = 0x5eed;
  return config;
}

struct Mode {
  const char* name;
  int batch_lanes;
  bool shared;
  bool per_shot;
  Precision precision;
};

constexpr Mode kModes[] = {
    {"batched shared", 4, true, false, Precision::kDouble},
    {"batched per-rate", 4, false, false, Precision::kDouble},
    {"scalar shared", 1, true, false, Precision::kDouble},
    {"scalar per-rate", 1, false, false, Precision::kDouble},
    {"per-shot", 4, true, true, Precision::kDouble},
    {"batched float32", 4, true, false, Precision::kFloat32},
};

void expect_digests(Operation op, const std::uint64_t (&expected)[6],
                    long shared_fallback_columns) {
  const SweepConfig base = digest_panel(op);
  Pcg64 rng(base.seed, 0x1257);
  const std::vector<ArithInstance> instances = generate_instances(
      base.instances, base.base.n, base.base.n, base.orders, rng);
  for (std::size_t i = 0; i < 6; ++i) {
    const Mode& mode = kModes[i];
    SweepConfig config = base;
    config.run.batch_lanes = mode.batch_lanes;
    config.run.shared_trajectories = mode.shared;
    config.run.per_shot = mode.per_shot;
    config.run.precision = mode.precision;
    const SweepResult result = run_sweep(config, instances);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(hex(sweep_digest(result)), hex(expected[i])) << mode.name;
    const bool shared_columns = mode.shared && !mode.per_shot;
    EXPECT_EQ(result.shared_stats.fallback_columns,
              shared_columns ? shared_fallback_columns : 0)
        << mode.name;
  }
}

TEST(SweepDigest, QfaPanelEveryUnitPath) {
  constexpr std::uint64_t kExpected[6] = {
      0x25f483d1d2448814, 0x1fc1a6496a24aa28, 0x25f483d1d2448814,
      0x1fc1a6496a24aa28, 0xd70d5ebc6373f096, 0x25f483d1d2448814};
  expect_digests(Operation::kAdd, kExpected, 2);
}

TEST(SweepDigest, QfmPanelEveryUnitPath) {
  constexpr std::uint64_t kExpected[6] = {
      0x333b20c707eab1fc, 0xc6ae76e4e69209ea, 0x6058830a219d0977,
      0x19954677eb807d69, 0xf4e4accb7ed35110, 0x333b20c707eab1fc};
  expect_digests(Operation::kMultiply, kExpected, 22);
}

}  // namespace
}  // namespace qfab
