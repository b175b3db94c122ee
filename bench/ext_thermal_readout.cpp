// Extension experiment (the paper's stated future work, Sec. V): isolate
// thermal relaxation (T1/T2, Pauli-twirled) and measurement/readout error
// for QFA, alone and combined with the 2q depolarizing error — the
// "simultaneous simulation" the paper calls for.
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/stopwatch.h"
#include "exp/sweep.h"
#include "transpile/transpile.h"

namespace {

using namespace qfab;

double run_point(const QuantumCircuit& circuit, const CircuitSpec& spec,
                 const std::vector<ArithInstance>& insts,
                 const NoiseModel& noise, const RunOptions& run,
                 std::uint64_t seed) {
  std::vector<InstanceOutcome> outcomes;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const InstanceContext ctx(circuit, spec, insts[i], run);
    std::vector<Pcg64> rngs{Pcg64(seed + i)};
    outcomes.push_back(ctx.evaluate({noise}, run, rngs)[0]);
  }
  return aggregate_outcomes(outcomes).success_rate;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace qfab::bench;
  const CliFlags flags(argc, argv);
  const long n_flag = flags.get_int("n", 6);
  const long inst_flag = flags.get_int("instances", 8);
  const long traj_flag = flags.get_int("traj", 10);
  const long shots_flag = flags.get_int("shots", 2048);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 31));
  // IBM-flavored timings: T1/T2 in microseconds, gates in ns.
  const double time_1q = flags.get_double("time1q", 0.035);  // 35 ns
  const double time_2q = flags.get_double("time2q", 0.30);   // 300 ns
  if (!flags.validate()) return 2;
  const int n = require_count("n", n_flag);
  const int instances = require_count("instances", inst_flag);
  const int traj = require_count("traj", traj_flag);
  require(shots_flag >= 1, "shots", "at least 1", shots_flag);
  const auto shots = static_cast<std::uint64_t>(shots_flag);
  require(time_1q >= 0.0, "time1q", "at least 0", time_1q);
  require(time_2q >= 0.0, "time2q", "at least 0", time_2q);

  std::cout << "=== Extension: thermal relaxation + readout error (QFA n = "
            << n << ", 2:2 operands, depth full) ===\n"
            << "T1/T2 in µs; gate times " << 1000 * time_1q << " ns (1q), "
            << 1000 * time_2q << " ns (2q); Pauli-twirled relaxation.\n\n";

  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = n;
  const QuantumCircuit circuit = build_transpiled_circuit(spec);
  Pcg64 gen(seed);
  const auto insts = generate_instances(instances, n, n, {2, 2}, gen);

  RunOptions run;
  run.shots = shots;
  run.error_trajectories = traj;

  Stopwatch watch;
  {
    TextTable table({"T1 (µs)", "T2 (µs)", "thermal only", "+2q depol 0.5%",
                     "+readout 2%"});
    for (const auto& [t1, t2] : std::vector<std::pair<double, double>>{
             {500.0, 300.0}, {100.0, 80.0}, {30.0, 25.0}, {10.0, 8.0}}) {
      NoiseModel thermal;
      thermal.t1 = t1;
      thermal.t2 = t2;
      thermal.time_1q = time_1q;
      thermal.time_2q = time_2q;

      NoiseModel combined = thermal;
      combined.p2q = 0.005;

      RunOptions with_readout = run;
      with_readout.readout = ReadoutError{0.02, 0.02};

      table.add_row(
          {fmt_double(t1, 0), fmt_double(t2, 0),
           fmt_percent(run_point(circuit, spec, insts, thermal, run, seed),
                       1) + "%",
           fmt_percent(run_point(circuit, spec, insts, combined, run, seed),
                       1) + "%",
           fmt_percent(run_point(circuit, spec, insts, combined,
                                 with_readout, seed),
                       1) + "%"});
    }
    table.print(std::cout);
  }

  std::cout << '\n';
  {
    TextTable table({"readout p01=p10", "success (no gate noise)"});
    for (double p : {0.0, 0.02, 0.05, 0.1, 0.2, 0.3}) {
      RunOptions ro = run;
      ro.readout = ReadoutError{p, p};
      table.add_row(
          {fmt_percent(p, 1) + "%",
           fmt_percent(run_point(circuit, spec, insts, NoiseModel{}, ro,
                                 seed),
                       1) + "%"});
    }
    table.print(std::cout);
  }
  std::cout << "\n(" << fmt_double(watch.seconds(), 1)
            << " s) The majority-vote metric is remarkably robust to\n"
            << "readout error (tens of percent per bit before it breaks);\n"
            << "thermal relaxation at current-device T1/T2 and gate times\n"
            << "is mild for QFA but compounds with 2q depolarizing noise.\n";
  return 0;
} catch (const qfab::UsageError& e) {
  return qfab::usage_error(argv[0], e);
}
