// Output gate: decides whether a panel came out right. Runs outside the
// timed region and works on the panel's canonical CSV (sweep_csv_table),
// the figure benches' output format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace panelbench {

/// How far a point's sigma (the standard deviation of its N instance
/// margins, in shot counts) may sit from the scalar double reference.
/// The batched paths re-associate the replay sums, and the float32 tier
/// rounds the amplitudes, so a channel entry differs in its low bits. Now
/// and then that tips the shot sampler (common/rng.cpp binomial: inversion
/// below a mean of 30 counts, a rounded normal approximation above) into
/// different counts for one instance, on the double workloads too. One
/// margin that moves by d counts moves sigma by at most d / sqrt(N). The
/// tolerance admits d = sqrt(shots), twice the largest standard deviation
/// of a single shot count. Over 31 seeds of qfm4-2q-auto the largest shift
/// seen was 4.2 counts (2.0%), against a tolerance of 16. Success rates,
/// instance counts and error-bar flips must match exactly.
double sigma_tolerance(std::uint64_t shots, int instances);

/// The panel's canonical CSV, as written to disk: the table is written to
/// `csv_path` and read back.
std::string panel_csv(const qfab::SweepResult& result,
                      const std::string& csv_path);

/// Why a panel cannot be used at all: it stopped early or hit a poisoned
/// unit. Empty when healthy.
std::vector<std::string> health_problems(const qfab::SweepResult& result);

/// Point-by-point comparison of a panel CSV against the CSV of the same
/// panel on the scalar double path, both drawn with `shots` shots per
/// instance: identical point grid, success rates, instance counts and
/// error-bar flips; sigma within sigma_tolerance. Empty when they agree.
std::vector<std::string> compare_to_reference(const std::string& csv,
                                              const std::string& ref_csv,
                                              std::uint64_t shots);

/// Comparison of a panel CSV against its golden CSV `golden_path`, the
/// batched double output at the default seed. A panel on the double path
/// must equal it byte for byte. A panel that may replay in float32
/// (precision float32 or auto) is held to it as compare_to_reference holds
/// a panel to the reference, because float32 rounding can tip one
/// instance's shot counts and move sigma. Empty when they agree.
std::vector<std::string> compare_to_golden(const std::string& csv,
                                           const std::string& golden,
                                           const std::string& golden_path,
                                           const qfab::RunOptions& run);

/// Byte comparison of two CSV texts; describes the first differing line.
std::vector<std::string> compare_csv(const std::string& got,
                                     const std::string& want,
                                     const std::string& what);

/// Flip the success of one instance at point `point`, as if its outcome
/// had come out the other way: the corruption the gate must catch.
void flip_one_outcome(qfab::SweepResult& result, std::size_t point);

}  // namespace panelbench
