// Figure-panel benchmark program (one workload per process; see
// panelbench/README.md).
//
//   panelbench --workload NAME --seed N --reference-out FILE
//   panelbench --workload NAME --seed N --seconds S --trace 0|1
//              --reference-csv FILE --out-dir DIR --golden-dir DIR
//              [--inject flip-outcome]
//
// --reference-out runs the panel once on the scalar double path, on every
// CPU the process may use, and writes its CSV: the reference the other two
// modes gate against. --trace 0 runs whole panels back to back through
// run_sweep_durable for S seconds and reports the end-to-end metrics;
// --trace 1 times every layer through the traced mirror and reports the
// per-layer metrics. Either way the report goes to stdout, one item a line,
// and panelbench/run.py turns it into the result object and the run record:
//
//   metric NAME VALUE UNIT    a metric of the result object
//   value KEY V               a number in the run record
//   list KEY V...             a list of numbers in the run record
//   json KEY JSON             a JSON value in the run record
//   problem TEXT              why a panel failed
//   result ATTEMPTED FAILED   panels run and panels failed (the last line)
//
// Exit status is 0 only when every panel passed the output gate.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <sched.h>

#include "common/cli.h"
#include "common/host_info.h"
#include "common/parallel.h"
#include "exp/journal.h"
#include "gate.h"
#include "host.h"
#include "mirror.h"
#include "workloads.h"

namespace {

using namespace qfab;
using namespace panelbench;

// setup_s is the median of fresh SweepExecution builds, each timed by the
// building thread's CPU clock, so a build that waits for a CPU does not
// count the wait. Builds run before the first panel and after every panel;
// after a panel they go on until they have used kSetupShare of its wall
// time, so every second of the run weighs about the same in the median.
constexpr double kSetupShare = 0.03;
constexpr int kSetupMinSamples = 5;
// Rounds of the per-depth build/transpile/fuse calls in the traced run.
constexpr int kTracedSetupRounds = 9;
// Problems echoed in the record (the failed count covers them all).
constexpr std::size_t kMaxProblems = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string golden_dir;
  std::string reference_out;
  std::string reference_csv;
  std::string inject;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void report_metric(const std::string& name, double v,
                   const std::string& unit) {
  std::cout << "metric " << name << ' ' << number(v) << ' ' << unit << '\n';
}

void report_value(const std::string& key, double v) {
  std::cout << "value " << key << ' ' << number(v) << '\n';
}

void report_list(const std::string& key, const std::vector<double>& v) {
  std::cout << "list " << key;
  for (const double x : v) std::cout << ' ' << number(x);
  std::cout << '\n';
}

/// Report the panel counts last; the exit status follows them.
int report_result(long attempted, long failed) {
  std::cout << "result " << attempted << ' ' << failed << std::endl;
  return failed == 0 && attempted > 0 ? 0 : 1;
}

/// Host and process facts taken at the start of a run and reported at its
/// end, so a noisy run can be explained afterwards.
class RunRecord {
 public:
  RunRecord() : load_start_(load_average()), cpu_start_(cpu_times()) {}

  void add_problems(const std::vector<std::string>& why) {
    for (const std::string& w : why)
      if (problems_.size() < kMaxProblems) problems_.push_back(w);
  }

  void report() const {
    std::cout << "json host " << host_info_json(cpu_simd_tier()) << '\n';
    const std::vector<int> cpus = allowed_cpus();
    report_list("allowed_cpus", std::vector<double>(cpus.begin(), cpus.end()));
    report_value("qfab_threads", std::atof(std::getenv("QFAB_THREADS")));
    report_list("load_avg_start", load_start_);
    report_list("load_avg_end", load_average());
    const CpuTimes end = cpu_times();
    const long long total = end.total - cpu_start_.total;
    report_value("steal_frac",
                 total > 0 ? static_cast<double>(end.steal - cpu_start_.steal) /
                                 static_cast<double>(total)
                           : 0.0);
    report_value("live_threads", live_threads());
    for (std::string p : problems_) {
      std::replace(p.begin(), p.end(), '\n', ' ');
      std::cout << "problem " << p << '\n';
    }
  }

 private:
  std::vector<double> load_start_;
  CpuTimes cpu_start_;
  std::vector<std::string> problems_;
};

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = static_cast<bool>(in);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void append(std::vector<std::string>& to,
            const std::vector<std::string>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Gate for every panel of a run, outside the timed region: health, the
/// scalar double reference CSV at every seed, and the golden CSV at the
/// default seed. A missing reference (its run failed) or golden fails
/// every panel.
class PanelGate {
 public:
  PanelGate(const Workload& w, const Options& opt)
      : run_(w.config.run), csv_path_(opt.out_dir + "/" + w.name + ".csv") {
    bool ok = false;
    reference_ = read_file(opt.reference_csv, ok);
    if (!ok || reference_.empty())
      missing_.push_back("reference CSV " + opt.reference_csv + " is missing");
    if (opt.seed != kDefaultSeed) return;
    golden_path_ = opt.golden_dir + "/" + w.name + ".csv";
    golden_ = read_file(golden_path_, ok);
    if (!ok || golden_.empty())
      missing_.push_back("golden CSV " + golden_path_ + " is missing");
  }

  /// Why `panel` failed (empty when it passed); *csv gets its CSV text.
  std::vector<std::string> check(const SweepResult& panel,
                                 std::string* csv = nullptr) const {
    std::vector<std::string> why = health_problems(panel);
    append(why, missing_);
    const std::string text = panel_csv(panel, csv_path_);
    if (!reference_.empty())
      append(why, compare_to_reference(text, reference_, run_.shots));
    if (!golden_.empty())
      append(why, compare_to_golden(text, golden_, golden_path_, run_));
    if (csv) *csv = text;
    return why;
  }

 private:
  RunOptions run_;
  std::string csv_path_;
  std::string reference_;
  std::string golden_path_;
  std::string golden_;
  std::vector<std::string> missing_;
};

// ------------------------------------------------------------ reference run

int run_reference(const Workload& w, const Options& opt) {
  std::filesystem::remove(opt.reference_out);
  const SweepResult ref = run_sweep(scalar_reference(w.config), w.instances);
  const std::vector<std::string> problems = health_problems(ref);
  for (const std::string& p : problems) std::cerr << "reference: " << p << '\n';
  if (!problems.empty()) return 1;
  sweep_csv_table(ref).write_csv(opt.reference_out);
  return 0;
}

// ---------------------------------------------------------------- timed run

DurableOptions durable_options(const Workload& w, const Options& opt) {
  DurableOptions durable;
  if (w.journal) durable.journal_path = opt.out_dir + "/" + w.name + ".journal";
  return durable;
}

int run_timed(const Workload& w, const Options& opt) {
  const SweepConfig& cfg = w.config;
  const double points = static_cast<double>(points_per_panel(cfg));
  RunRecord record;
  const PanelGate gate(w, opt);

  std::vector<double> setup, setup_wall;
  const auto sample_setup = [&](double budget_s) {
    double used = 0.0;
    for (int k = 0; k < kSetupMinSamples || used < budget_s; ++k) {
      const double t0 = now_seconds();
      const double c0 = thread_cpu_seconds();
      { const SweepExecution exec(cfg, w.instances); }
      setup.push_back(thread_cpu_seconds() - c0);
      setup_wall.push_back(now_seconds() - t0);
      used += setup_wall.back();
    }
  };

  const DurableOptions durable = durable_options(w, opt);
  std::vector<double> walls, cpus;
  long attempted = 0, failed = 0;
  std::string first_csv;
  SweepResult first;
  const long fallbacks_before = precision_fallback_count();
  const double start = now_seconds();
  sample_setup(0.0);
  // Closed loop: the next panel starts when the previous one is done. A
  // panel starts while at least half of a mean panel still fits in the
  // budget, so a run ends as near the budget as whole panels allow and a
  // workload with long panels runs the same count every time (at least
  // two panels).
  while (walls.size() < 2 ||
         (now_seconds() - start) +
                 0.5 * std::accumulate(walls.begin(), walls.end(), 0.0) /
                     static_cast<double>(walls.size()) <=
             opt.seconds) {
    const double c0 = process_cpu_seconds();
    const double t0 = now_seconds();
    SweepResult res = run_sweep_durable(cfg, w.instances, durable);
    walls.push_back(now_seconds() - t0);
    cpus.push_back(process_cpu_seconds() - c0);

    if (opt.inject == "flip-outcome" && attempted == 0)
      flip_one_outcome(res, 0);
    std::string csv;
    std::vector<std::string> why = gate.check(res, &csv);
    if (attempted == 0) {
      first_csv = csv;
      first = std::move(res);
    } else {
      append(why, compare_csv(csv, first_csv, "panel CSV vs the first panel"));
    }
    ++attempted;
    if (!why.empty()) ++failed;
    record.add_problems(why);
    sample_setup(kSetupShare * walls.back());
  }
  const double measured = now_seconds() - start;
  const double rss = peak_rss_mib();
  const double wall = std::accumulate(walls.begin(), walls.end(), 0.0);
  const double cpu = std::accumulate(cpus.begin(), cpus.end(), 0.0);
  const double n_points = points * static_cast<double>(walls.size());
  const std::vector<double> later(walls.begin() + 1, walls.end());
  const SharedEstimateStats& st = first.shared_stats;

  report_metric("points_per_s", n_points / wall, "1/s");
  report_metric("cpu_ms_per_point", 1000.0 * cpu / n_points, "ms");
  report_metric("setup_s", median(setup), "s");
  report_metric("peak_rss_mb", rss, "MiB");

  report_value("threads_seen", cpu / wall);
  report_value("busy_frac",
               cpu / (wall * static_cast<double>(allowed_cpus().size())));
  report_value("measured_s", measured);
  report_list("panel_wall_s", walls);
  report_list("panel_cpu_s", cpus);
  report_value("first_panel_ratio", walls.front() / median(later));
  report_value("setup_samples", static_cast<double>(setup.size()));
  report_value("setup_p10_s", quantile(setup, 0.1));
  report_value("setup_p90_s", quantile(setup, 0.9));
  report_value("setup_wall_p50_s", median(setup_wall));
  report_value("points_per_panel", points);
  report_value("units_per_panel", static_cast<double>(first.units_total));
  report_value("units_retried", static_cast<double>(first.units_retried));
  report_value("fallback_columns", static_cast<double>(st.fallback_columns));
  report_value("rate_columns", static_cast<double>(st.rate_columns));
  report_value("precision_fallbacks", static_cast<double>(
                                          precision_fallback_count() -
                                          fallbacks_before));
  record.report();
  return report_result(attempted, failed);
}

// --------------------------------------------------------------- traced run

JournalRecord unit_record(const SweepGrid& grid, std::size_t u,
                          const UnitResult& out) {
  const SweepGrid::UnitKey key = grid.key(u);
  JournalRecord rec;
  rec.type = out.poisoned ? JournalRecord::Type::kPoisoned
                          : JournalRecord::Type::kUnit;
  rec.depth_index = static_cast<std::uint32_t>(key.depth_index);
  rec.block_begin = static_cast<std::uint32_t>(key.block_begin);
  rec.block_end = static_cast<std::uint32_t>(key.block_end);
  rec.outcomes = out.outcomes;
  rec.stats = out.stats;
  rec.error = out.error;
  return rec;
}

int run_traced(const Workload& w, const Options& opt) {
  const SweepConfig& cfg = w.config;
  RunRecord record;
  const PanelGate gate(w, opt);
  Tracer tracer;
  std::vector<std::string> problems;
  long attempted = 0, failed = 0;

  // Setup layers: the per-depth build / transpile / fuse calls, repeated.
  std::map<std::string, std::vector<double>> setup_ms;
  MirrorSetup setup;
  for (int k = 0; k < kTracedSetupRounds; ++k) {
    const std::size_t first_span = tracer.spans().size();
    setup = mirror_setup(cfg, tracer);
    std::map<std::string, double> round;
    for (std::size_t i = first_span; i < tracer.spans().size(); ++i)
      round[tracer.spans()[i].name] +=
          1000.0 * tracer.duration(static_cast<int>(i));
    for (const auto& [name, ms] : round) setup_ms[name].push_back(ms);
  }
  double gates = 0.0, ops = 0.0;
  for (std::size_t d = 0; d < setup.circuits.size(); ++d) {
    gates += static_cast<double>(setup.circuits[d].gates().size());
    ops += static_cast<double>(setup.plans[d]->op_count());
  }

  // The panel itself: one untraced run_sweep_durable call, gated like a
  // timed panel. Its CPU and wall time give the thread-pool figures and
  // its SweepResult the exact estimator and retry counts.
  const long fallbacks_before = precision_fallback_count();
  const double cpu0 = process_cpu_seconds();
  const double wall0 = now_seconds();
  const SweepResult panel =
      run_sweep_durable(cfg, w.instances, durable_options(w, opt));
  const double panel_wall = now_seconds() - wall0;
  const double panel_cpu = process_cpu_seconds() - cpu0;
  const long fallbacks = precision_fallback_count() - fallbacks_before;
  {
    const std::vector<std::string> why = gate.check(panel);
    ++attempted;
    if (!why.empty()) ++failed;
    append(problems, why);
  }

  SweepExecution exec(cfg, w.instances);
  const SweepGrid& grid = exec.grid();
  const std::uint64_t fingerprint = sweep_fingerprint(cfg, w.instances);

  // Pass A: a copy of run_sweep_durable's schedule (one
  // parallel_for_chunked over the units, journal appends from the worker
  // that finished the unit), untraced, for the per-unit start and end
  // times the real call does not expose.
  std::vector<UnitResult> scheduled(grid.n_units);
  std::vector<double> unit_start(grid.n_units), unit_end(grid.n_units);
  std::unique_ptr<JournalWriter> journal;
  if (w.journal)
    journal = std::make_unique<JournalWriter>(
        durable_options(w, opt).journal_path, fingerprint, true);
  const double copy_start = now_seconds();
  parallel_for_chunked(0, grid.n_units, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      unit_start[u] = now_seconds();
      scheduled[u] = exec.run_unit(u);
      unit_end[u] = now_seconds();
      if (journal) journal->append(unit_record(grid, u, scheduled[u]));
    }
  });
  const double copy_wall = now_seconds() - copy_start;
  journal.reset();
  std::vector<double> unit_ms;
  for (std::size_t u = 0; u < grid.n_units; ++u)
    unit_ms.push_back(1000.0 * (unit_end[u] - unit_start[u]));
  const double last_start =
      *std::max_element(unit_start.begin(), unit_start.end());

  // Pass B: every unit serially, plain run_unit and the traced mirror in
  // alternating order; the mirror must reproduce both it and the pass A
  // unit bit for bit. Each mirrored unit is then appended to a journal
  // under its own span, so the journal layer is timed on every workload.
  const std::string trace_journal_path =
      opt.out_dir + "/" + w.name + ".trace.journal";
  JournalWriter trace_journal(trace_journal_path, fingerprint, true);
  const auto journal_bytes_before =
      std::filesystem::file_size(trace_journal_path);
  ReplayProbe probe;
  double plain_s = 0.0, traced_s = 0.0, unit_span_s = 0.0, unit_self_s = 0.0;
  std::vector<double> append_ms;
  std::size_t mismatches = 0;
  const std::size_t spans_before = tracer.spans().size();
  for (std::size_t u = 0; u < grid.n_units; ++u) {
    UnitResult plain, mirrored;
    const auto run_plain = [&] {
      const double t0 = now_seconds();
      plain = exec.run_unit(u);
      plain_s += now_seconds() - t0;
    };
    const auto run_mirror = [&] {
      const std::size_t first_span = tracer.spans().size();
      mirrored = mirror_unit(cfg, w.instances, grid, setup, u, tracer, &probe);
      traced_s += tracer.duration(static_cast<int>(first_span));  // exp.unit
    };
    if (u % 2 == 0) {
      run_plain();
      run_mirror();
    } else {
      run_mirror();
      run_plain();
    }
    if (!same_unit_result(mirrored, plain) ||
        !same_unit_result(mirrored, scheduled[u])) {
      ++mismatches;
      problems.push_back("traced mirror differs from run_unit on unit " +
                         std::to_string(u));
    }
    const Scope span(tracer, "exp.journal_append");
    const double t0 = now_seconds();
    trace_journal.append(unit_record(grid, u, mirrored));
    append_ms.push_back(1000.0 * (now_seconds() - t0));
  }
  ++attempted;
  if (mismatches > 0) ++failed;
  const double journal_bytes = static_cast<double>(
      std::filesystem::file_size(trace_journal_path) - journal_bytes_before);

  const std::vector<double> self = tracer.self_times();
  std::map<std::string, double> self_ms;
  for (std::size_t i = spans_before; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    self_ms[s.name] += 1000.0 * self[i];
    if (std::string(s.name) == "exp.unit") {
      unit_span_s += s.end - s.start;
      unit_self_s += self[i];
    }
  }
  tracer.write_csv(opt.out_dir + "/spans-" + w.name + "-seed" +
                   std::to_string(opt.seed) + ".csv");

  const SharedEstimateStats& st = panel.shared_stats;
  const double ncpu = static_cast<double>(allowed_cpus().size());
  report_metric("qfb.build_ms", median(setup_ms["qfb.build"]), "ms");
  report_metric("transpile.ms", median(setup_ms["transpile"]), "ms");
  report_metric("transpile.gates", gates, "count");
  report_metric("sim.fuse_ms", median(setup_ms["sim.fuse"]), "ms");
  report_metric("sim.fused_ops", ops, "count");
  report_metric("arith.prep_ms", self_ms["arith.prep"], "ms");
  report_metric("noise.clean_ms", self_ms["noise.clean"], "ms");
  report_metric("noise.locations_ms", self_ms["noise.locations"], "ms");
  report_metric("noise.estimate_ms", self_ms["noise.estimate"], "ms");
  report_metric("noise.proposal_traj",
                static_cast<double>(st.proposal_trajectories), "count");
  report_metric("noise.unique_traj",
                static_cast<double>(st.unique_trajectories), "count");
  report_metric("noise.fallback_traj",
                static_cast<double>(st.fallback_trajectories), "count");
  report_metric("noise.fallback_cols_frac",
                st.rate_columns > 0
                    ? static_cast<double>(st.fallback_columns) /
                          static_cast<double>(st.rate_columns)
                    : 0.0,
                "fraction");
  report_metric("noise.ess_min", st.ess_fraction_min, "fraction");
  report_metric("noise.precision_fallbacks", static_cast<double>(fallbacks),
                "count");
  report_metric("sim.replay_ms_per_traj",
                probe.trajectories > 0
                    ? 1000.0 * probe.seconds /
                          static_cast<double>(probe.trajectories)
                    : 0.0,
                "ms");
  report_metric("sim.replay_lane_fill",
                probe.lane_slots > 0
                    ? static_cast<double>(probe.trajectories) /
                          static_cast<double>(probe.lane_slots)
                    : 0.0,
                "fraction");
  report_metric("exp.shots_ms", self_ms["exp.shots"], "ms");
  report_metric("exp.units", static_cast<double>(grid.n_units), "count");
  report_metric("exp.unit_ms_p50", quantile(unit_ms, 0.5), "ms");
  report_metric("exp.unit_ms_p90", quantile(unit_ms, 0.9), "ms");
  report_metric("exp.units_retried", static_cast<double>(panel.units_retried),
                "count");
  report_metric("exp.journal_append_ms_p50", median(append_ms), "ms");
  report_metric("exp.journal_bytes_per_unit",
                journal_bytes / static_cast<double>(grid.n_units), "bytes");
  report_metric("exp.tail_frac",
                (copy_start + copy_wall - last_start) / copy_wall, "fraction");
  report_metric("common.threads_seen", panel_cpu / panel_wall, "threads");
  report_metric("common.busy_frac", panel_cpu / (ncpu * panel_wall),
                "fraction");
  report_metric("trace.coverage",
                unit_span_s > 0.0 ? 1.0 - unit_self_s / unit_span_s : 0.0,
                "fraction");
  report_metric("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction");
  report_metric("failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "fraction");

  report_value("panel_wall_s", panel_wall);
  report_value("panel_cpu_s", panel_cpu);
  report_value("schedule_copy_wall_s", copy_wall);
  report_value("plain_units_s", plain_s);
  report_value("traced_units_s", traced_s);
  report_value("mirror_mismatches", static_cast<double>(mismatches));
  report_value("spans", static_cast<double>(tracer.spans().size()));
  record.add_problems(problems);
  record.report();
  return report_result(attempted, failed);
}

/// Hold the process to the workload's CPUs and thread count; the reference
/// run takes every CPU it may use instead. Must run before the first sweep:
/// ThreadPool::shared() reads QFAB_THREADS once, when it is first used.
void pin_process(const Workload& w, bool reference) {
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t threads =
      reference ? cpus.size() : static_cast<std::size_t>(std::max(w.cpus, 1));
  setenv("QFAB_THREADS", std::to_string(threads).c_str(), 1);
  if (reference || w.cpus <= 0) return;
  if (cpus.size() < static_cast<std::size_t>(w.cpus))
    throw std::runtime_error(w.name + " needs " + std::to_string(w.cpus) +
                             " CPUs, the process may use " +
                             std::to_string(cpus.size()));
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int k = 0; k < w.cpus; ++k)
    CPU_SET(cpus[static_cast<std::size_t>(k)], &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

int run(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  Options opt;
  opt.workload = flags.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<long>(kDefaultSeed)));
  opt.seconds = flags.get_double("seconds", opt.seconds);
  opt.trace = flags.get_int("trace", 0) != 0;
  opt.out_dir = flags.get_string("out-dir", opt.out_dir);
  opt.golden_dir = flags.get_string("golden-dir", opt.golden_dir);
  opt.reference_out = flags.get_string("reference-out", "");
  opt.reference_csv = flags.get_string("reference-csv", "");
  opt.inject = flags.get_string("inject", "");
  if (!flags.validate()) return 2;
  if (!opt.inject.empty() && opt.inject != "flip-outcome") {
    std::cerr << "--inject takes only flip-outcome\n";
    return 2;
  }
  const Workload w = make_workload(opt.workload, opt.seed);
  const bool reference = !opt.reference_out.empty();
  pin_process(w, reference);
  if (reference) return run_reference(w, opt);
  return opt.trace ? run_traced(w, opt) : run_timed(w, opt);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "panelbench: " << e.what() << '\n';
    return 2;
  }
}
